package emu

import (
	"fmt"
	"math/bits"

	"gpues/internal/excep"
	"gpues/internal/isa"
)

// Run is a maximal stretch of a warp's dynamic instructions at
// consecutive PCs under one active mask: the instructions PC, PC+1, ...,
// PC+N-1, each executed with Mask. It holds no pointers and is 12 bytes.
type Run struct {
	// PC is the static instruction index of the run's first instruction.
	PC int32
	// Mask is the set of active lanes of every instruction in the run.
	Mask uint32
	// N is the number of instructions in the run, at least one.
	N uint32
}

// WarpTrace is the dynamic instruction sequence of one warp, run-length
// encoded: Runs gives the PC and active mask of every instruction, and
// each global memory instruction (one the kernel code says
// IsGlobalMem) has, in order, one entry in Counts: how many of the
// following entries of Lines are its coalesced lines. A line is stored
// in 4 bytes, as its line number (address >> the log2 of the line
// size) less Base, taken as a signed 32-bit offset; LineAt and LinesAt
// expand it back to an address. Read the trace in order with Iter, or
// from the zero Pos with Next.
type WarpTrace struct {
	// WarpID is the warp index within its thread block.
	WarpID int
	// Len is the number of dynamic instructions.
	Len int
	// Runs, Counts and Lines encode the instructions; see WarpTrace.
	Runs   []Run
	Counts []uint8
	Lines  []uint32
	// Base is the line number Lines are offsets from: the warp's first
	// line's.
	Base uint64
	// shift is the log2 of the line size: a line's number is its
	// address >> shift.
	shift uint8
	// Excep, when set, is the device exception the warp raised: the
	// trace ends just before the faulting instruction and the timing
	// layer delivers the record once the warp drains (see internal/sm).
	Excep *excep.Record
}

// Pos is a position in a warp trace: the index of one dynamic
// instruction and where it sits in the encoding. The zero Pos is the
// first instruction; Next steps to the following one in O(1).
type Pos struct {
	// Idx is the dynamic instruction index within the warp.
	Idx int32
	// run and off locate the instruction in Runs; cnt and line are the
	// Counts and Lines offsets of the first memory instruction at or
	// after it.
	run, off, cnt int32
	line          uint32
}

// End reports whether p is past the warp's last instruction.
func (wt *WarpTrace) End(p Pos) bool { return int(p.Idx) >= wt.Len }

// PC returns the static instruction index at p, which must not be End.
func (wt *WarpTrace) PC(p Pos) int32 { return wt.Runs[p.run].PC + p.off }

// Mask returns the active lanes of the instruction at p.
func (wt *WarpTrace) Mask(p Pos) uint32 { return wt.Runs[p.run].Mask }

// NumLines returns how many coalesced lines the global memory
// instruction at p has: one per unique cache line its active lanes
// touch, none when all its lanes were predicated off. p must hold a
// global memory instruction: at any other, the line accessors read the
// next global memory instruction's.
func (wt *WarpTrace) NumLines(p Pos) int { return int(wt.Counts[p.cnt]) }

// LineAt returns the address of line i, in [0, NumLines(p)), of the
// global memory instruction at p. Lines are aligned to the line size
// and in first-touch lane order.
func (wt *WarpTrace) LineAt(p Pos, i int) uint64 {
	return wt.expand(wt.Lines[p.line+uint32(i)])
}

// LinesAt appends the addresses of the lines of the global memory
// instruction at p (see LineAt) to dst and returns the extended slice.
func (wt *WarpTrace) LinesAt(dst []uint64, p Pos) []uint64 {
	for _, l := range wt.Lines[p.line : p.line+uint32(wt.Counts[p.cnt])] {
		dst = append(dst, wt.expand(l))
	}
	return dst
}

// expand returns the address of a stored line.
func (wt *WarpTrace) expand(l uint32) uint64 {
	return (wt.Base + uint64(int64(int32(l)))) << wt.shift
}

// lineOffset returns how a line whose number is num is stored against
// base, and whether it fits: its signed distance from base must fit in
// 32 bits.
func lineOffset(num, base uint64) (uint32, bool) {
	d := int64(num - base)
	return uint32(d), d == int64(int32(d))
}

// Next returns the position after p. global says whether the
// instruction at p is a global memory instruction, which consumes one
// line count.
func (wt *WarpTrace) Next(p Pos, global bool) Pos {
	if global {
		p.line += uint32(wt.Counts[p.cnt])
		p.cnt++
	}
	p.Idx++
	p.off++
	if uint32(p.off) == wt.Runs[p.run].N {
		p.run++
		p.off = 0
	}
	return p
}

// Iter walks a warp trace in execution order:
//
//	for it := wt.Iter(code); it.Next(); {
//		use(it.PC(), it.Mask(), it.Lines(nil))
//	}
type Iter struct {
	wt        *WarpTrace
	code      []isa.Instruction
	pos, next Pos
	global    bool
}

// Iter returns an iterator over the warp's instructions. code is the
// kernel the warp ran, which says which instructions carry lines.
func (wt *WarpTrace) Iter(code []isa.Instruction) Iter {
	return Iter{wt: wt, code: code}
}

// Next moves to the next instruction and reports whether there is one.
func (it *Iter) Next() bool {
	if it.wt.End(it.next) {
		return false
	}
	it.pos = it.next
	it.global = it.code[it.wt.PC(it.pos)].IsGlobalMem()
	it.next = it.wt.Next(it.pos, it.global)
	return true
}

// PC returns the current instruction's static index.
func (it *Iter) PC() int32 { return it.wt.PC(it.pos) }

// Mask returns the current instruction's active lanes.
func (it *Iter) Mask() uint32 { return it.wt.Mask(it.pos) }

// Lines appends the current instruction's coalesced line addresses
// (see WarpTrace.LineAt) to dst and returns the extended slice; an
// instruction that is not a global memory access appends none.
func (it *Iter) Lines(dst []uint64) []uint64 {
	if !it.global {
		return dst
	}
	return it.wt.LinesAt(dst, it.pos)
}

// BlockTrace is the dynamic trace of one thread block: one WarpTrace per
// warp, plus summary statistics.
//
// A trace that EmulateBlock returned may be handed back with
// Emulator.Release once its consumer is done with it; the next
// EmulateBlock then reuses its arrays, so nothing may read it (or any
// slice of a WarpTrace of it) afterwards. Exception records are never
// reused.
type BlockTrace struct {
	// BlockID is the linear block index within the grid.
	BlockID int
	Warps   []WarpTrace

	// DynInsts is the total dynamic warp-instruction count.
	DynInsts int
	// GlobalAccesses is the number of global memory instructions.
	GlobalAccesses int
	// MemRequests is the number of coalesced global memory requests.
	MemRequests int
	// Flips is the number of bit flips injected into the block's
	// execution.
	Flips int

	// runs, counts and lines back every warp's Runs, Counts and Lines
	// windows. They are reused when the trace is released.
	runs   []Run
	counts []uint8
	lines  []uint32
}

// RunBytes and LineBytes are the encoded sizes of one Run and one line.
const (
	RunBytes  = 12
	LineBytes = 4
)

// Bytes returns the size of the block's encoded instructions: its
// RunBytes and its LineBytes.
func (bt *BlockTrace) Bytes() int { return bt.RunBytes() + bt.LineBytes() }

// RunBytes returns the size of the block's runs: 12 bytes per run.
func (bt *BlockTrace) RunBytes() int { return RunBytes * bt.NumRuns() }

// LineBytes returns the size of the block's global memory
// instructions' lines: one byte per line count and four per coalesced
// line.
func (bt *BlockTrace) LineBytes() int {
	n := 0
	for i := range bt.Warps {
		wt := &bt.Warps[i]
		n += len(wt.Counts) + LineBytes*len(wt.Lines)
	}
	return n
}

// NumRuns returns the number of runs across the block's warps.
func (bt *BlockTrace) NumRuns() int {
	n := 0
	for i := range bt.Warps {
		n += len(bt.Warps[i].Runs)
	}
	return n
}

// Append adds one instruction to warp w's stream, growing Warps to
// cover w. An instruction given lines is a global memory instruction
// and gets a line count; one given none is not, so a hand-built trace
// cannot hold a global memory instruction whose lanes were all off. It
// builds traces by hand, for tests and tools; DynInsts and the access
// counters are left to the caller. A hand-built trace stores byte
// addresses (line size 1), so its lines need no alignment; Append
// panics on a line more than 2^31 bytes from the warp's first.
func (bt *BlockTrace) Append(w int, pc int32, mask uint32, lines ...uint64) {
	for len(bt.Warps) <= w {
		bt.Warps = append(bt.Warps, WarpTrace{WarpID: len(bt.Warps)})
	}
	wt := &bt.Warps[w]
	wt.Runs = extend(wt.Runs, pc, mask)
	wt.Len++
	if len(lines) == 0 {
		return
	}
	if len(wt.Lines) == 0 {
		wt.Base = lines[0]
	}
	wt.Counts = append(wt.Counts, uint8(len(lines)))
	for _, a := range lines {
		off, ok := lineOffset(a, wt.Base)
		if !ok {
			panic(fmt.Sprintf("emu: Append: line %#x is more than 2^31 bytes from the warp's first, %#x", a, wt.Base))
		}
		wt.Lines = append(wt.Lines, off)
	}
}

// extend appends one instruction to runs: it lengthens the last run
// when the instruction continues it, and starts a new run otherwise.
func extend(runs []Run, pc int32, mask uint32) []Run {
	if n := len(runs); n > 0 {
		r := &runs[n-1]
		if r.Mask == mask && r.PC+int32(r.N) == pc {
			r.N++
			return runs
		}
	}
	return append(runs, Run{PC: pc, Mask: mask, N: 1})
}

// TouchedPages returns the set of distinct virtual pages referenced by
// the block's global memory instructions, for the given page size;
// code is the kernel the block ran.
func (bt *BlockTrace) TouchedPages(code []isa.Instruction, pageSize int) map[uint64]bool {
	pages := make(map[uint64]bool)
	mask := ^uint64(pageSize - 1)
	var lines []uint64
	for i := range bt.Warps {
		for it := bt.Warps[i].Iter(code); it.Next(); {
			lines = it.Lines(lines[:0])
			for _, a := range lines {
				pages[a&mask] = true
			}
		}
	}
	return pages
}

// coalesce appends to dst the unique line-aligned addresses covered by
// the per-lane accesses [addr, addr+size) for lanes set in mask,
// preserving first-touch order. The warp coalescing unit of the baseline
// SM generates exactly one memory request per unique line (Figure 5).
func coalesce(dst []uint64, addrs *[32]uint64, mask uint32, size int, lineSize uint64) []uint64 {
	lineMask := ^(lineSize - 1)
	// While each line is at least the last one appended, dst is
	// strictly increasing, and a line is new exactly when it exceeds
	// the last; the first line below it falls back to a full search.
	rising := true
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		first := addrs[lane] & lineMask
		last := (addrs[lane] + uint64(size) - 1) & lineMask
		for line := first; ; line += lineSize {
			n := len(dst)
			if rising && n > 0 && line < dst[n-1] {
				rising = false
			}
			if rising {
				if n == 0 || line > dst[n-1] {
					dst = append(dst, line)
				}
			} else if !hasLine(dst, line) {
				dst = append(dst, line)
			}
			if line == last {
				break
			}
		}
	}
	return dst
}

// hasLine reports whether dst holds line. Neighbouring lanes mostly
// touch the line appended last, so the search runs newest first.
func hasLine(dst []uint64, line uint64) bool {
	for i := len(dst) - 1; i >= 0; i-- {
		if dst[i] == line {
			return true
		}
	}
	return false
}
