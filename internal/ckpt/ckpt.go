// Package ckpt implements the versioned, deterministic whole-simulator
// checkpoint format. A checkpoint is a cycle plus one state digest per
// registered component. No component state is ever read back from a
// file: an audit re-executes a fresh run through the cycles of a trail
// of checkpoints and checks the digests at each. The file carries a
// format version, fingerprints of the configuration and launch spec it
// belongs to, and a trailing whole-file digest so a checkpoint
// truncated in transit is detected rather than audited against.
//
// Components implement Saver: SaveState appends the component's state
// to a Writer as a flat sequence of typed fields, and the section
// digest is taken over those bytes. Serialization must be deterministic
// — in particular, map-keyed state must be written in sorted key order
// (the simlint determinism analyzer covers this package). Section
// digests double as the per-component state fingerprints that
// cmd/simbisect compares when binary-searching for the first cycle two
// runs diverge.
//
// See docs/checkpointing.md for the format layout, the determinism
// contract and the audit model.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gpues/internal/atomicio"
)

// Magic identifies a checkpoint file. It stays fixed across format
// versions, so a file written by another version is refused with an
// error naming that version rather than as bad magic.
const Magic = "GPUCKPT1"

// Version is the current checkpoint format version. Bump it whenever
// the envelope, any component's SaveState layout or the state a
// section digests changes: an audit
// refuses checkpoints written by a different version instead of
// reporting a spurious divergence against them.
const Version uint32 = 4

// fnv64a is the FNV-1a digest used for section, file and streaming
// state digests. It is not cryptographic; it only needs to make state
// divergence and file truncation visible.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Digest returns the FNV-1a hash of b.
func Digest(b []byte) uint64 {
	h := fnvOffset
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// Hasher is a streaming FNV-1a digest for components that fingerprint
// large state (page tables, functional memory) instead of serializing
// it byte for byte.
type Hasher struct{ h uint64 }

// NewHasher returns a Hasher at the FNV-1a offset basis.
func NewHasher() *Hasher { return &Hasher{h: fnvOffset} }

// U64 folds v into the digest.
func (s *Hasher) U64(v uint64) {
	for i := 0; i < 8; i++ {
		s.h ^= uint64(byte(v >> (8 * i)))
		s.h *= fnvPrime
	}
}

// Bytes folds b into the digest.
func (s *Hasher) Bytes(b []byte) {
	h := s.h
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	s.h = h
}

// Sum returns the current digest value.
func (s *Hasher) Sum() uint64 { return s.h }

// Saver is the common interface every stateful simulator component
// implements to participate in checkpointing: SaveState appends the
// component's state to w. An audit compares the digest of a re-executed
// SaveState against the checkpoint, so any state SaveState leaves out
// is state a divergent re-execution could differ in unnoticed.
//
// State that cannot be serialized (scheduled event handlers, pooled
// objects in flight) is represented structurally — counts and sorted
// summaries — and reached again by deterministic re-execution in an
// audit; see docs/checkpointing.md.
type Saver interface {
	SaveState(w *Writer)
}

// Writer accumulates one component's serialized state as a flat byte
// stream of typed, little-endian fields.
type Writer struct{ buf []byte }

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Reset clears the writer for reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Data returns the accumulated bytes (not a copy).
func (w *Writer) Data() []byte { return w.buf }

// U64 appends v.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends v.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// U32 appends v.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// Int appends v as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool appends b as one byte.
func (w *Writer) Bool(b bool) {
	var v byte
	if b {
		v = 1
	}
	w.buf = append(w.buf, v)
}

// F64 appends the IEEE-754 bits of f.
func (w *Writer) F64(f float64) { w.U64(math.Float64bits(f)) }

// Bytes appends b length-prefixed.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends s length-prefixed.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// reader consumes the fields of an encoded checkpoint. Errors are
// sticky: after the first short read every accessor returns the zero
// value and err reports the failure, so Decode reads unconditionally
// and checks once.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.remaining() < n {
		r.err = fmt.Errorf("ckpt: truncated checkpoint: need %d bytes at offset %d of %d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// string reads one length-prefixed string.
func (r *reader) string() string {
	n := r.u64()
	if r.err == nil && n > uint64(r.remaining()) {
		r.err = fmt.Errorf("ckpt: truncated checkpoint: string of %d bytes at offset %d of %d", n, r.off, len(r.buf))
	}
	return string(r.take(int(n)))
}

// SectionDigest names one component's state digest: the FNV-1a hash of
// its SaveState bytes with its divergence nonce appended. A checkpoint
// is a list of these, and simbisect compares such lists across runs.
type SectionDigest struct {
	Name   string
	Digest uint64
}

// Checkpoint is one decoded (or to-be-encoded) checkpoint: the cycle it
// was taken at, the fingerprints of the configuration and launch spec
// that produced it, and one digest per registered component.
type Checkpoint struct {
	Version  uint32
	Cycle    int64
	ConfigFP uint64
	SpecFP   uint64
	Sections []SectionDigest
}

// Encode serializes the checkpoint:
//
//	magic[8] version:u32 cycle:i64 configFP:u64 specFP:u64 nSections:u32
//	( name:str digest:u64 )*
//	fileDigest:u64   — FNV-1a over every preceding byte
func (c *Checkpoint) Encode() []byte {
	w := NewWriter()
	w.buf = append(w.buf, Magic...)
	w.U32(c.Version)
	w.I64(c.Cycle)
	w.U64(c.ConfigFP)
	w.U64(c.SpecFP)
	w.U32(uint32(len(c.Sections)))
	for _, s := range c.Sections {
		w.String(s.Name)
		w.U64(s.Digest)
	}
	w.U64(Digest(w.buf))
	return w.buf
}

// Decode parses and fully validates an encoded checkpoint: magic, the
// trailing file digest, version, a non-negative cycle and the exact
// section list. A file cut short by a crash fails here instead of
// restoring garbage.
func Decode(b []byte) (*Checkpoint, error) {
	if len(b) < len(Magic)+8 || string(b[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("ckpt: not a checkpoint file (bad magic)")
	}
	body, tail := b[:len(b)-8], b[len(b)-8:]
	if got, want := binary.LittleEndian.Uint64(tail), Digest(body); got != want {
		return nil, fmt.Errorf("ckpt: file digest mismatch (%#016x != %#016x): truncated or corrupt", got, want)
	}
	r := &reader{buf: body[len(Magic):]}
	c := &Checkpoint{Version: r.u32()}
	if r.err != nil {
		return nil, r.err
	}
	if c.Version != Version {
		return nil, fmt.Errorf("ckpt: format version %d, this binary reads version %d", c.Version, Version)
	}
	// A negative cycle would make an audit run to the end of the launch
	// before failing (StepTo treats a negative stop as "no stop").
	if c.Cycle = int64(r.u64()); c.Cycle < 0 {
		return nil, fmt.Errorf("ckpt: negative checkpoint cycle %d", c.Cycle)
	}
	c.ConfigFP = r.u64()
	c.SpecFP = r.u64()
	n := r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		s := SectionDigest{Name: r.string()}
		s.Digest = r.u64()
		c.Sections = append(c.Sections, s)
	}
	if r.err != nil {
		return nil, r.err
	}
	if rem := r.remaining(); rem != 0 {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after %d sections", rem, n)
	}
	return c, nil
}

// WriteFile atomically writes the checkpoint to path (tmp+rename via
// atomicio), so a reader (or an audit after kill -9) only ever sees
// complete files.
func (c *Checkpoint) WriteFile(path string) error {
	return atomicio.WriteFile(path, c.Encode())
}

// ReadFile reads and validates the checkpoint at path.
func ReadFile(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// FileName returns the canonical checkpoint file name for a cycle;
// zero-padding keeps lexical and numeric order identical.
func FileName(cycle int64) string { return fmt.Sprintf("ckpt-%012d.ckpt", cycle) }

// ReadTrail reads every checkpoint in dir, sorted by cycle: the digest
// trail a run wrote with CheckpointEvery. A file that fails validation
// (a copy truncated in transit; the atomic write itself never leaves a
// partial file) is not fatal: its name lands in skipped, and the caller
// decides whether a gap in the trail matters.
func ReadTrail(dir string) (trail []*Checkpoint, skipped []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		c, err := ReadFile(filepath.Join(dir, name))
		if err != nil {
			skipped = append(skipped, name)
			continue
		}
		trail = append(trail, c)
	}
	sort.SliceStable(trail, func(a, b int) bool { return trail[a].Cycle < trail[b].Cycle })
	return trail, skipped, nil
}
