package emu

import (
	"fmt"
	"math/bits"

	"gpues/internal/excep"
	"gpues/internal/isa"
)

// TraceInst is one dynamic warp instruction in a trace: the static
// instruction index plus the runtime information the timing simulator
// needs (active mask and, for memory instructions, the coalesced line
// addresses). It holds no pointers: the PC names the static
// instruction, and the lines live in the owning BlockTrace's line
// array, read through BlockTrace.LinesOf. The struct is 16 bytes.
type TraceInst struct {
	// PC is the static instruction index in the kernel code.
	PC int32
	// Mask is the set of active lanes when the instruction executed.
	Mask uint32
	// lineOff and lineN locate the instruction's coalesced lines in
	// BlockTrace.lines.
	lineOff uint32
	lineN   uint32
}

// String formats the trace instruction for debugging.
func (ti *TraceInst) String() string {
	return fmt.Sprintf("pc=%d mask=%08x lines=%d", ti.PC, ti.Mask, ti.lineN)
}

// WarpTrace is the dynamic instruction sequence of one warp.
type WarpTrace struct {
	// WarpID is the warp index within its thread block.
	WarpID int
	// Insts is the dynamic instruction stream in execution order.
	Insts []TraceInst
	// Excep, when set, is the device exception the warp raised: Insts
	// ends just before the faulting instruction and the timing layer
	// delivers the record once the warp drains (see internal/sm).
	Excep *excep.Record
}

// BlockTrace is the dynamic trace of one thread block: one WarpTrace per
// warp, plus summary statistics.
//
// A trace that EmulateBlock returned may be handed back with
// Emulator.Release once its consumer is done with it; the next
// EmulateBlock then reuses its arrays, so nothing may read it (or any
// WarpTrace.Insts slice of it) afterwards. Exception records are never
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

	// insts backs every warp's Insts window; lines holds every
	// instruction's coalesced line addresses. Both are reused when the
	// trace is released.
	insts []TraceInst
	lines []uint64
}

// LinesOf returns the coalesced memory request addresses of ti, an
// instruction of bt: one entry per unique cache line touched by the
// active lanes, aligned to the line size, in first-touch lane order.
// It is empty for non-memory instructions and for memory instructions
// whose lanes were all predicated off. For shared memory instructions
// the addresses are offsets within the block's shared memory
// partition. The slice aliases the trace.
func (bt *BlockTrace) LinesOf(ti TraceInst) []uint64 {
	end := ti.lineOff + ti.lineN
	return bt.lines[ti.lineOff:end:end]
}

// Append adds one instruction with the given lines to warp w's stream,
// growing Warps to cover w. It builds traces by hand, for tests and
// tools; DynInsts and the access counters are left to the caller.
func (bt *BlockTrace) Append(w int, pc int32, mask uint32, lines ...uint64) {
	for len(bt.Warps) <= w {
		bt.Warps = append(bt.Warps, WarpTrace{WarpID: len(bt.Warps)})
	}
	bt.Warps[w].Insts = append(bt.Warps[w].Insts, TraceInst{PC: pc, Mask: mask})
	bt.SetLines(w, len(bt.Warps[w].Insts)-1, lines...)
}

// SetLines replaces the lines of instruction i of warp w.
func (bt *BlockTrace) SetLines(w, i int, lines ...uint64) {
	ti := &bt.Warps[w].Insts[i]
	ti.lineOff, ti.lineN = uint32(len(bt.lines)), uint32(len(lines))
	bt.lines = append(bt.lines, lines...)
}

// TouchedPages returns the set of distinct virtual pages referenced by
// the block's global memory instructions, for the given page size;
// code is the kernel the block ran.
func (bt *BlockTrace) TouchedPages(code []isa.Instruction, pageSize int) map[uint64]bool {
	pages := make(map[uint64]bool)
	mask := ^uint64(pageSize - 1)
	for i := range bt.Warps {
		for _, ti := range bt.Warps[i].Insts {
			if code[ti.PC].IsGlobalMem() {
				for _, a := range bt.LinesOf(ti) {
					pages[a&mask] = true
				}
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
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		first := addrs[lane] & lineMask
		last := (addrs[lane] + uint64(size) - 1) & lineMask
		for line := first; ; line += lineSize {
			// Neighbouring lanes mostly touch the line appended last,
			// so the search runs newest first.
			seen := false
			for i := len(dst) - 1; i >= 0; i-- {
				if dst[i] == line {
					seen = true
					break
				}
			}
			if !seen {
				dst = append(dst, line)
			}
			if line == last {
				break
			}
		}
	}
	return dst
}
