package emu

import (
	"fmt"
	"math/bits"

	"gpues/internal/excep"
	"gpues/internal/isa"
)

// TraceInst is one dynamic warp instruction in a trace: the static
// instruction it came from plus the runtime information the timing
// simulator needs (active mask and, for memory instructions, the
// coalesced line addresses). PC and Mask sit together so the struct
// packs into 40 bytes.
type TraceInst struct {
	// PC is the static instruction index in the kernel code.
	PC int32
	// Mask is the set of active lanes when the instruction executed.
	Mask uint32
	// Static points at the kernel's instruction.
	Static *isa.Instruction
	// Lines holds the coalesced memory request addresses: one entry per
	// unique cache line touched by the active lanes, aligned to the line
	// size, in first-touch lane order. Nil for non-memory instructions
	// and for memory instructions whose lanes were all predicated off.
	// For shared memory instructions the addresses are offsets within
	// the block's shared memory partition.
	Lines []uint64
}

// ActiveLanes returns the number of active lanes.
func (ti *TraceInst) ActiveLanes() int {
	n := 0
	for m := ti.Mask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// String formats the trace instruction for debugging.
func (ti *TraceInst) String() string {
	return fmt.Sprintf("pc=%d mask=%08x %v lines=%d", ti.PC, ti.Mask, ti.Static, len(ti.Lines))
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
}

// TouchedPages returns the set of distinct virtual pages referenced by
// the block's global memory instructions, for the given page size.
func (bt *BlockTrace) TouchedPages(pageSize int) map[uint64]bool {
	pages := make(map[uint64]bool)
	mask := ^uint64(pageSize - 1)
	for i := range bt.Warps {
		for j := range bt.Warps[i].Insts {
			ti := &bt.Warps[i].Insts[j]
			if ti.Static.IsGlobalMem() {
				for _, a := range ti.Lines {
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
