package sm

import (
	"sort"

	"gpues/internal/ckpt"
)

// SaveState serializes the SM: statistics and scheduler scalars, the
// buffered-instruction mask, and a full structural record of every
// resident and switched-out block — per-warp cursors,
// replay queues, scoreboards and stall stamps. In-flight instructions
// live as flight-table records that scheduled events name by slot, so flights
// themselves are represented only by the per-warp counts and flags
// that name them; replay rebuilds the objects.
func (s *SM) SaveState(w *ckpt.Writer) {
	w.I64(s.stats.Cycles)
	w.I64(s.stats.ActiveCycles)
	w.I64(s.stats.Committed)
	w.I64(s.stats.Issued)
	w.I64(s.stats.Fetched)
	w.I64(s.stats.GlobalMemInsts)
	w.I64(s.stats.MemRequests)
	w.I64(s.stats.Faults)
	w.I64(s.stats.Squashed)
	w.I64(s.stats.Replays)
	w.I64(s.stats.BlocksRun)
	w.I64(s.stats.SwitchesOut)
	w.I64(s.stats.SwitchesIn)
	w.I64(s.stats.ContextBytes)
	w.I64(s.stats.IssueStallLog)
	w.I64(s.stats.IssueStallScore)
	w.I64(s.stats.IssueStallChaos)
	w.I64(s.stats.Exceptions)
	for _, v := range s.stats.Stalls {
		w.I64(v)
	}

	w.Int(s.lastFetch)
	w.Int(s.lastIssue)
	w.Bool(s.idle)
	w.Int(s.assigned)
	w.Int(len(s.bufMask))
	for _, m := range s.bufMask {
		w.U64(m)
	}

	w.Int(len(s.slots))
	for _, b := range s.slots {
		if b == nil {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		saveBlock(w, b)
	}
	w.Int(len(s.offchip))
	for _, b := range s.offchip {
		saveBlock(w, b)
	}
}

func saveBlock(w *ckpt.Writer, b *blockRT) {
	w.Int(b.id)
	w.Int(b.slot)
	w.U64(uint64(b.state))
	w.Int(b.liveWarps)
	w.Int(b.barrierCount)
	w.Int(b.logUsed)
	w.Int(b.pendingFaults)
	w.Int(b.contextBytes)
	w.I64(b.switchOutStart)
	w.Bool(b.excepted)
	w.Int(len(b.warps))
	for _, wr := range b.warps {
		saveWarp(w, wr)
	}
}

func saveWarp(w *ckpt.Writer, wr *warpRT) {
	w.Int(wr.idx)
	// A trace position is saved as its instruction index: the rest of
	// it follows from the index and the trace.
	w.Int(int(wr.pos.Idx))
	w.Int(len(wr.replay))
	for _, p := range wr.replay {
		w.U64(uint64(p.Idx))
	}
	w.Bool(wr.buf != nil)
	if wr.buf != nil {
		w.U64(uint64(wr.buf.pos.Idx))
	}
	w.I64(wr.bufReady)
	w.U64(uint64(wr.fetchBlock))
	w.Bool(wr.fetchOwner != nil)
	for _, p := range wr.pendWrite {
		w.U64(p)
	}
	w.Bytes(wr.pendRead[:])
	w.Int(wr.inFlight)
	w.Bool(wr.atBarrier)
	w.Bool(wr.barFlight != nil)
	w.Int(wr.faultsOutstanding)
	w.Bool(wr.done)
	w.Bool(wr.excep != nil)
	w.Bool(wr.excepDone)
	w.I64(wr.faultWaitStart)
	w.I64(wr.barStart)
	w.I64(wr.fetchBlockStart)

	tIdxs := make([]int32, 0, len(wr.heldSrcs))
	for t := range wr.heldSrcs {
		tIdxs = append(tIdxs, t)
	}
	sort.Slice(tIdxs, func(i, j int) bool { return tIdxs[i] < tIdxs[j] })
	w.Int(len(tIdxs))
	for _, t := range tIdxs {
		w.U64(uint64(t))
		regs := wr.heldSrcs[t]
		w.Int(len(regs))
		for _, reg := range regs {
			w.U64(uint64(reg))
		}
	}
}
