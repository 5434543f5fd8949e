// Package emu implements the execution-driven functional simulator of
// the paper's methodology (Section 5.1): it executes kernels written in
// the internal ISA and produces the dynamic instruction and memory
// traces that the timing simulator consumes.
//
// A block's trace holds one WarpTrace per warp, run-length encoded: a
// list of runs, each a maximal stretch of consecutive PCs executed
// under one active mask (a 12-byte Run), plus one line count per
// global memory instruction and the coalesced lines those counts
// consume, in execution order, each stored in 4 bytes as its line
// number's offset from the warp's first line's. Straight-line code
// under a full warp is one run however long it is; a taken branch, a
// predicated instruction or a divergent region starts a new one.
// Readers walk a trace in order with a Pos, which Next advances in
// O(1), or with Iter; which instructions carry a line count is read
// from the kernel code (isa.Instruction.IsGlobalMem), not stored.
package emu

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// chunkBits selects the sparse-memory chunk size (64 KB).
const chunkBits = 16

const chunkSize = 1 << chunkBits

// Memory is the functional view of the unified virtual address space:
// it holds contents only. Page residency and ownership (the timing
// view) live in the vm package; both index the same virtual addresses.
//
// Memory is sparse: chunks materialize on first write. Reads of
// untouched memory return zero without allocating.
type Memory struct {
	chunks map[uint64][]byte
	// Written counts bytes backed by materialized chunks, for tests and
	// footprint reporting.
	allocated int
	// Single-entry chunk cache: warp accesses are heavily clustered, so
	// most lookups hit the chunk of the previous one. Chunks are never
	// removed from the map, so the cached slice cannot go stale.
	//simlint:ckptskip lookup cache over chunks, holding no state beyond the chunks SaveState digests
	lastKey uint64
	//simlint:ckptskip lookup cache over chunks, holding no state beyond the chunks SaveState digests
	lastChunk []byte
}

// NewMemory returns an empty functional memory.
func NewMemory() *Memory {
	return &Memory{chunks: make(map[uint64][]byte)}
}

// AllocatedBytes returns the number of bytes materialized so far.
func (m *Memory) AllocatedBytes() int { return m.allocated }

func (m *Memory) chunk(addr uint64, create bool) []byte {
	key := addr >> chunkBits
	if m.lastChunk != nil && m.lastKey == key {
		return m.lastChunk
	}
	c := m.chunks[key]
	if c == nil && create {
		c = make([]byte, chunkSize)
		m.chunks[key] = c
		m.allocated += chunkSize
	}
	if c != nil {
		m.lastKey, m.lastChunk = key, c
	}
	return c
}

// Read returns the little-endian value of the given size (1, 2, 4 or 8
// bytes) at addr. Accesses may cross chunk boundaries.
func (m *Memory) Read(addr uint64, size int) uint64 {
	if off := addr & (chunkSize - 1); int(off)+size <= chunkSize {
		c := m.chunk(addr, false)
		if c == nil {
			return 0
		}
		return getLE(c[off:], size)
	}
	// Slow path: byte-wise, spanning chunks.
	var v uint64
	for i := 0; i < size; i++ {
		c := m.chunk(addr+uint64(i), false)
		var b byte
		if c != nil {
			b = c[(addr+uint64(i))&(chunkSize-1)]
		}
		v |= uint64(b) << (8 * i)
	}
	return v
}

// Write stores the low size bytes of v at addr, little-endian.
func (m *Memory) Write(addr uint64, size int, v uint64) {
	if off := addr & (chunkSize - 1); int(off)+size <= chunkSize {
		putLE(m.chunk(addr, true)[off:], size, v)
		return
	}
	for i := 0; i < size; i++ {
		c := m.chunk(addr+uint64(i), true)
		c[(addr+uint64(i))&(chunkSize-1)] = byte(v >> (8 * i))
	}
}

// getLE returns the little-endian value of the first size bytes of b.
func getLE(b []byte, size int) uint64 {
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// putLE stores the low size bytes of v into b, little-endian.
func putLE(b []byte, size int, v uint64) {
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	default:
		for i := 0; i < size; i++ {
			b[i] = byte(v >> (8 * i))
		}
	}
}

// ReadU32 reads a 32-bit value.
func (m *Memory) ReadU32(addr uint64) uint32 { return uint32(m.Read(addr, 4)) }

// WriteU32 writes a 32-bit value.
func (m *Memory) WriteU32(addr uint64, v uint32) { m.Write(addr, 4, uint64(v)) }

// ReadU64 reads a 64-bit value.
func (m *Memory) ReadU64(addr uint64) uint64 { return m.Read(addr, 8) }

// WriteU64 writes a 64-bit value.
func (m *Memory) WriteU64(addr uint64, v uint64) { m.Write(addr, 8, v) }

// ReadF32 reads a float32.
func (m *Memory) ReadF32(addr uint64) float32 {
	return math.Float32frombits(m.ReadU32(addr))
}

// WriteF32 writes a float32.
func (m *Memory) WriteF32(addr uint64, v float32) {
	m.WriteU32(addr, math.Float32bits(v))
}

// ReadF64 reads a float64.
func (m *Memory) ReadF64(addr uint64) float64 {
	return math.Float64frombits(m.ReadU64(addr))
}

// WriteF64 writes a float64.
func (m *Memory) WriteF64(addr uint64, v float64) {
	m.WriteU64(addr, math.Float64bits(v))
}

// Atom performs the read-modify-write op at addr and returns the old
// value. Emulation is single-threaded, so the operation is trivially
// atomic; inter-block ordering follows block emulation order, which is
// a valid (if arbitrary) interleaving.
func (m *Memory) Atom(addr uint64, size int, op func(old uint64) (new uint64, store bool)) uint64 {
	old := m.Read(addr, size)
	if nv, store := op(old); store {
		m.Write(addr, size, nv)
	}
	return old
}

// Fill writes n zero bytes starting at addr, materializing the chunks
// (used by workloads to pre-touch CPU-initialized buffers).
func (m *Memory) Fill(addr uint64, n int) {
	for i := 0; i < n; i += chunkSize {
		m.chunk(addr+uint64(i), true)
	}
	if n > 0 {
		m.chunk(addr+uint64(n-1), true)
	}
}

// Clone returns a deep copy of the memory, used to snapshot the initial
// state before a run so the functional oracle can re-execute from it.
func (m *Memory) Clone() *Memory {
	c := &Memory{chunks: make(map[uint64][]byte, len(m.chunks)), allocated: m.allocated}
	for key, data := range m.chunks {
		dup := make([]byte, chunkSize)
		copy(dup, data)
		//simlint:ignore determinism copying entries into a freshly made map is order-insensitive
		c.chunks[key] = dup
	}
	return c
}

// Mismatch is one byte of disagreement between two memories.
type Mismatch struct {
	Addr      uint64
	Got, Want byte
}

// Diff compares m (got) against want byte by byte, treating
// unmaterialized chunks as zeros, and returns up to max mismatches
// (max <= 0 means unbounded). Equal memories return nil.
func (m *Memory) Diff(want *Memory, max int) []Mismatch {
	seen := make(map[uint64]bool, len(m.chunks)+len(want.chunks))
	for k := range m.chunks {
		seen[k] = true
	}
	for k := range want.chunks {
		seen[k] = true
	}
	keys := make([]uint64, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []Mismatch
	for _, key := range keys {
		a, b := m.chunks[key], want.chunks[key]
		for off := 0; off < chunkSize; off++ {
			var ga, gb byte
			if a != nil {
				ga = a[off]
			}
			if b != nil {
				gb = b[off]
			}
			if ga != gb {
				out = append(out, Mismatch{Addr: key<<chunkBits | uint64(off), Got: ga, Want: gb})
				if max > 0 && len(out) >= max {
					return out
				}
			}
		}
	}
	return out
}

// String summarizes the memory for debugging.
func (m *Memory) String() string {
	return fmt.Sprintf("emu.Memory{%d chunks, %d KiB}", len(m.chunks), m.allocated/1024)
}
