package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Version:  Version,
		Cycle:    12345,
		ConfigFP: 0xdead,
		SpecFP:   0xbeef,
		Sections: []SectionDigest{
			{Name: "alpha", Digest: 0x0123456789abcdef},
			{Name: "beta", Digest: Digest([]byte("state"))},
			{Name: "empty", Digest: Digest(nil)},
		},
	}
}

// stamp replaces b's trailing file digest with the digest of the bytes
// before it, so a hand-edited body still passes the integrity check.
func stamp(b []byte) []byte {
	body := b[:len(b)-8]
	return binary.LittleEndian.AppendUint64(append([]byte(nil), body...), Digest(body))
}

// encodeV1 lays out a version-1 checkpoint, which carried each
// section's full state bytes ahead of its digest.
func encodeV1() []byte {
	payload := []byte("payload")
	w := NewWriter()
	w.buf = append(w.buf, Magic...)
	w.U32(1)
	w.I64(100)
	w.U64(0xdead)
	w.U64(0xbeef)
	w.U32(1)
	w.String("alpha")
	w.Bytes(payload)
	w.U64(Digest(payload))
	w.U64(Digest(w.buf))
	return w.buf
}

func TestWriterLayout(t *testing.T) {
	w := NewWriter()
	w.U64(42)
	w.I64(-7)
	w.U32(9)
	w.Int(13)
	w.Bool(true)
	w.Bool(false)
	w.F64(3.5)
	w.Bytes([]byte{1, 2, 3})
	w.String("hi")
	want := []byte{}
	want = binary.LittleEndian.AppendUint64(want, 42)
	want = binary.LittleEndian.AppendUint64(want, ^uint64(6))
	want = binary.LittleEndian.AppendUint32(want, 9)
	want = binary.LittleEndian.AppendUint64(want, 13)
	want = append(want, 1, 0)
	want = binary.LittleEndian.AppendUint64(want, 0x400c000000000000)
	want = binary.LittleEndian.AppendUint64(want, 3)
	want = append(want, 1, 2, 3)
	want = binary.LittleEndian.AppendUint64(want, 2)
	want = append(want, 'h', 'i')
	if !bytes.Equal(w.Data(), want) {
		t.Fatalf("writer bytes\n got %x\nwant %x", w.Data(), want)
	}
	w.Reset()
	if len(w.Data()) != 0 {
		t.Error("Reset left bytes behind")
	}
}

func TestReaderStickyError(t *testing.T) {
	r := &reader{buf: []byte{1, 2}} // too short for any field
	if got := r.u64(); got != 0 {
		t.Errorf("u64 on short buffer = %d, want 0", got)
	}
	if r.err == nil {
		t.Fatal("short read must set the error")
	}
	// Every subsequent read stays zero-valued and the error sticks.
	if r.u32() != 0 || r.string() != "" {
		t.Error("reads after error must return zero values")
	}
	if r.err == nil {
		t.Error("error must be sticky")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := sampleCheckpoint()
	b := c.Encode()
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != c.Version || got.Cycle != c.Cycle || got.ConfigFP != c.ConfigFP || got.SpecFP != c.SpecFP {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Sections) != len(c.Sections) {
		t.Fatalf("%d sections, want %d", len(got.Sections), len(c.Sections))
	}
	for i := range c.Sections {
		if got.Sections[i] != c.Sections[i] {
			t.Errorf("section %d = %+v, want %+v", i, got.Sections[i], c.Sections[i])
		}
	}
	// magic + version + cycle + two fingerprints + count, then
	// (length-prefixed name, digest) per section, then the file digest.
	size := 8 + 4 + 8 + 8 + 8 + 4 + 8
	for _, s := range c.Sections {
		size += 8 + len(s.Name) + 8
	}
	if len(b) != size {
		t.Errorf("encoded size %d, want %d", len(b), size)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	b := sampleCheckpoint().Encode()
	// Every proper prefix must be rejected — the crash-mid-write cases.
	for _, cut := range []int{1, 8, len(b) / 2, len(b) - 1} {
		if _, err := Decode(b[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	b := sampleCheckpoint().Encode()
	// Flip a byte in the middle (section payload): the file digest
	// catches it.
	mut := append([]byte(nil), b...)
	mut[len(mut)/2] ^= 0xff
	if _, err := Decode(mut); err == nil {
		t.Error("corrupted payload accepted")
	}
	// Bad magic.
	mut = append([]byte(nil), b...)
	mut[0] = 'X'
	if _, err := Decode(mut); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	c := sampleCheckpoint()
	c.Version = Version + 1
	if _, err := Decode(c.Encode()); err == nil {
		t.Error("future format version accepted")
	}
}

func TestDecodeRefusesVersion1(t *testing.T) {
	_, err := Decode(encodeV1())
	if err == nil {
		t.Fatal("version-1 file accepted")
	}
	if !strings.Contains(err.Error(), "format version 1, this binary reads version 3") {
		t.Errorf("error %q does not name version 1", err)
	}
}

// Version 2 had today's envelope, but its obs.metrics section also
// digested registry counters, so its digests no longer match a replay.
func TestDecodeRefusesVersion2(t *testing.T) {
	c := sampleCheckpoint()
	c.Version = 2
	_, err := Decode(c.Encode())
	if err == nil {
		t.Fatal("version-2 file accepted")
	}
	if !strings.Contains(err.Error(), "format version 2, this binary reads version 3") {
		t.Errorf("error %q does not name version 2", err)
	}
}

func TestDecodeRejectsNegativeCycle(t *testing.T) {
	c := sampleCheckpoint()
	c.Cycle = -5
	_, err := Decode(c.Encode())
	if err == nil {
		t.Fatal("negative cycle accepted")
	}
	if !strings.Contains(err.Error(), "negative checkpoint cycle -5") {
		t.Errorf("error = %v", err)
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	b := sampleCheckpoint().Encode()
	padded := append(append([]byte(nil), b[:len(b)-8]...), make([]byte, 16)...)
	if _, err := Decode(stamp(padded)); err == nil {
		t.Error("trailing bytes after the last section accepted")
	}
}

func TestWriteFileAtomicAndReadBack(t *testing.T) {
	dir := t.TempDir()
	c := sampleCheckpoint()
	path := filepath.Join(dir, FileName(c.Cycle))
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Error("temp file left behind")
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycle != c.Cycle {
		t.Errorf("cycle = %d, want %d", got.Cycle, c.Cycle)
	}
}

func TestReadTrailSortsByCycleAndSkipsInvalid(t *testing.T) {
	dir := t.TempDir()
	for _, cycle := range []int64{100, 5000, 900} {
		c := sampleCheckpoint()
		c.Cycle = cycle
		if err := c.WriteFile(filepath.Join(dir, FileName(cycle))); err != nil {
			t.Fatal(err)
		}
	}
	// A stall checkpoint sorts after the periodic ones by name but
	// takes its place in the trail by cycle.
	c := sampleCheckpoint()
	c.Cycle = 200
	if err := c.WriteFile(filepath.Join(dir, "stall-000000000200.ckpt")); err != nil {
		t.Fatal(err)
	}
	// A corrupt file is skipped by name, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "ckpt-999999999999.ckpt"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	trail, skipped, err := ReadTrail(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cycles []int64
	for _, c := range trail {
		cycles = append(cycles, c.Cycle)
	}
	if want := []int64{100, 200, 900, 5000}; fmt.Sprint(cycles) != fmt.Sprint(want) {
		t.Errorf("trail cycles = %v, want %v", cycles, want)
	}
	if len(skipped) != 1 || skipped[0] != "ckpt-999999999999.ckpt" {
		t.Errorf("skipped = %v, want the garbage file", skipped)
	}
}

func TestReadTrailEmptyDir(t *testing.T) {
	trail, skipped, err := ReadTrail(t.TempDir())
	if err != nil || len(trail) != 0 || len(skipped) != 0 {
		t.Errorf("empty dir = (%d checkpoints, %v, %v), want nothing", len(trail), skipped, err)
	}
	if _, _, err := ReadTrail(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing dir error = %v, want ErrNotExist", err)
	}
}

func TestHasherMatchesDigest(t *testing.T) {
	b := []byte("some state bytes")
	h := NewHasher()
	h.Bytes(b)
	if h.Sum() != Digest(b) {
		t.Error("streaming hasher disagrees with one-shot digest")
	}
}

// FuzzDecode: Decode never panics, and any input it accepts re-encodes
// to exactly the same bytes, so a checkpoint has one encoding. Each
// input is also tried with its file digest recomputed, which lets
// mutations reach the parser behind the integrity check.
func FuzzDecode(f *testing.F) {
	f.Add(sampleCheckpoint().Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		inputs := [][]byte{b}
		if len(b) >= 8 {
			inputs = append(inputs, stamp(b))
		}
		for _, in := range inputs {
			c, err := Decode(in)
			if err != nil {
				continue
			}
			if out := c.Encode(); !bytes.Equal(out, in) {
				t.Fatalf("Encode(Decode(b)) differs from b\n   b %x\n got %x", in, out)
			}
		}
	})
}
