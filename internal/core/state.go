package core

import (
	"sort"

	"gpues/internal/ckpt"
)

// SaveState serializes the fault unit: queue depth, statistics, and the
// pending regions sorted by base address (the pending map must never be
// iterated raw). Region waiter events are rebuilt by replay.
func (u *FaultUnit) SaveState(w *ckpt.Writer) {
	w.Int(u.queued)
	w.I64(u.stats.Raised)
	w.I64(u.stats.Regions)
	w.I64(u.stats.Merged)
	w.I64(u.stats.RoutedCPU)
	w.I64(u.stats.RoutedLocal)
	w.Int(u.stats.MaxQueue)

	bases := make([]uint64, 0, len(u.pending))
	for b := range u.pending {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	w.Int(len(bases))
	for _, b := range bases {
		rf := u.pending[b]
		w.U64(b)
		w.Int(rf.pos)
		w.I64(rf.born)
		w.Int(len(rf.waiters))
	}
}

// SaveState serializes the GPU-local handler: per-slot next-free
// cycles, statistics, and each SM partition's physical allocator.
func (h *LocalHandler) SaveState(w *ckpt.Writer) {
	w.Int(len(h.free))
	for _, f := range h.free {
		w.I64(f)
	}
	w.I64(h.stats.Handled)
	w.I64(h.stats.PagesMapped)
	w.I64(h.stats.SerialCycles)
	w.Int(len(h.allocs))
	for _, a := range h.allocs {
		a.SaveState(w)
	}
}
