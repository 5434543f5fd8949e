package sm

import (
	"fmt"
	"strings"
)

// This file implements the SM's diagnostic surface: structured
// snapshots for the simulator's stall reports and structural invariant
// checks for the chaos harness. Neither is on any hot path.

// String names the block state.
func (st blockState) String() string {
	switch st {
	case blockActive:
		return "active"
	case blockDraining:
		return "draining"
	case blockSaving:
		return "saving"
	case blockOffChip:
		return "off-chip"
	case blockRestoring:
		return "restoring"
	}
	return fmt.Sprintf("blockState(%d)", uint8(st))
}

// String names the fetch-disable reason.
func (r fetchReason) String() string {
	switch r {
	case fetchOK:
		return "ok"
	case fetchControl:
		return "control"
	case fetchWarpDisable:
		return "warp-disable"
	}
	return fmt.Sprintf("fetchReason(%d)", uint8(r))
}

// WarpSnapshot is the diagnostic state of one resident warp.
type WarpSnapshot struct {
	Index             int
	Done              bool
	Cursor            int
	TraceLen          int
	ReplayQueue       int // squashed instructions awaiting replay
	Buffered          bool
	FetchBlock        string
	InFlight          int
	AtBarrier         bool
	FaultsOutstanding int
}

// BlockSnapshot is the diagnostic state of one assigned block.
type BlockSnapshot struct {
	ID            int
	Slot          int // -1 when off-chip
	State         string
	LiveWarps     int
	BarrierCount  int
	LogUsed       int
	PendingFaults int
	// Excepted marks a block squashed by preemptible exception delivery.
	Excepted bool
	Warps    []WarpSnapshot
}

// Snapshot is the diagnostic state of one SM, captured for stall
// reports.
type Snapshot struct {
	ID         int
	Idle       bool
	Assigned   int
	OffChip    int
	L1MSHRs    int
	L1TLBMSHRs int
	Blocks     []BlockSnapshot
}

// String renders the snapshot compactly, one block per line.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SM %d: %d blocks (%d off-chip), idle=%v, L1 MSHRs=%d, L1TLB MSHRs=%d",
		s.ID, s.Assigned, s.OffChip, s.Idle, s.L1MSHRs, s.L1TLBMSHRs)
	for _, blk := range s.Blocks {
		fmt.Fprintf(&b, "\n  block %d [%s] slot=%d live=%d barrier=%d log=%d faults=%d",
			blk.ID, blk.State, blk.Slot, blk.LiveWarps, blk.BarrierCount, blk.LogUsed, blk.PendingFaults)
		if blk.Excepted {
			b.WriteString(" excepted")
		}
		for _, w := range blk.Warps {
			if w.Done {
				continue
			}
			fmt.Fprintf(&b, "\n    warp %d: pc=%d/%d replay=%d buf=%v fetch=%s inflight=%d barrier=%v faults=%d",
				w.Index, w.Cursor, w.TraceLen, w.ReplayQueue, w.Buffered, w.FetchBlock,
				w.InFlight, w.AtBarrier, w.FaultsOutstanding)
		}
	}
	return b.String()
}

func snapshotWarp(w *warpRT) WarpSnapshot {
	return WarpSnapshot{
		Index:             w.idx,
		Done:              w.done,
		Cursor:            int(w.pos.Idx),
		TraceLen:          w.trace.Len,
		ReplayQueue:       len(w.replay),
		Buffered:          w.buf != nil,
		FetchBlock:        w.fetchBlock.String(),
		InFlight:          w.inFlight,
		AtBarrier:         w.atBarrier,
		FaultsOutstanding: w.faultsOutstanding,
	}
}

func snapshotBlock(b *blockRT) BlockSnapshot {
	bs := BlockSnapshot{
		ID:            b.id,
		Slot:          b.slot,
		State:         b.state.String(),
		LiveWarps:     b.liveWarps,
		BarrierCount:  b.barrierCount,
		LogUsed:       b.logUsed,
		PendingFaults: b.pendingFaults,
		Excepted:      b.excepted,
	}
	for _, w := range b.warps {
		bs.Warps = append(bs.Warps, snapshotWarp(w))
	}
	return bs
}

// Snapshot captures the SM's diagnostic state.
func (s *SM) Snapshot() Snapshot {
	snap := Snapshot{
		ID:       s.ID,
		Idle:     s.idle,
		Assigned: s.assigned,
		OffChip:  len(s.offchip),
	}
	if s.l1 != nil {
		snap.L1MSHRs = s.l1.InFlight()
	}
	if s.l1tlb != nil {
		snap.L1TLBMSHRs = s.l1tlb.InFlight()
	}
	for _, b := range s.slots {
		if b != nil {
			snap.Blocks = append(snap.Blocks, snapshotBlock(b))
		}
	}
	for _, b := range s.offchip {
		snap.Blocks = append(snap.Blocks, snapshotBlock(b))
	}
	return snap
}

// AssignedBlocks returns the number of blocks this SM owns in any state
// (resident or switched out) — the SM's term of the simulator's block
// conservation invariant.
func (s *SM) AssignedBlocks() int { return s.assigned }

// CheckInvariants validates the SM's structural state, returning one
// message per violation. maxMSHRAge bounds how long an L1 cache or L1
// TLB miss may stay outstanding (0 disables the age check).
func (s *SM) CheckInvariants(now, maxMSHRAge int64) []string {
	var v []string
	bad := func(format string, args ...any) {
		v = append(v, fmt.Sprintf("SM %d: ", s.ID)+fmt.Sprintf(format, args...))
	}

	// Slot bookkeeping: assigned must equal resident plus off-chip
	// blocks, and every resident block must know its slot.
	resident := 0
	for slot, b := range s.slots {
		if b == nil {
			continue
		}
		resident++
		if b.slot != slot {
			bad("block %d in slot %d records slot %d", b.id, slot, b.slot)
		}
		if b.state == blockOffChip {
			bad("block %d occupies slot %d but is marked off-chip", b.id, slot)
		}
	}
	for _, b := range s.offchip {
		if b.state != blockOffChip && b.state != blockSaving {
			bad("off-chip list holds block %d in state %s", b.id, b.state)
		}
	}
	if got := resident + len(s.offchip); s.assigned != got {
		bad("assigned=%d but %d resident + %d off-chip", s.assigned, resident, len(s.offchip))
	}

	check := func(b *blockRT) {
		live, faults := 0, 0
		for _, w := range b.warps {
			if !w.done {
				live++
			}
			if w.inFlight < 0 {
				bad("block %d warp %d has negative in-flight count %d", b.id, w.idx, w.inFlight)
			}
			if w.faultsOutstanding < 0 {
				bad("block %d warp %d has negative outstanding faults %d", b.id, w.idx, w.faultsOutstanding)
			}
			faults += w.faultsOutstanding
			if w.atBarrier && w.inFlight < 1 {
				bad("block %d warp %d parked at barrier with no in-flight instruction", b.id, w.idx)
			}
			// A quiescent warp may hold no scoreboard state: every
			// pendWrite bit and pendRead count must have an owner.
			if w.inFlight == 0 && w.buf == nil && len(w.heldSrcs) == 0 {
				for i, bits := range w.pendWrite {
					if bits != 0 {
						bad("block %d warp %d quiescent with pendWrite[%d]=%#x", b.id, w.idx, i, bits)
					}
				}
				for r, n := range w.pendRead {
					if n != 0 {
						bad("block %d warp %d quiescent with pendRead[r%d]=%d", b.id, w.idx, r, n)
					}
				}
			}
		}
		if b.liveWarps != live {
			bad("block %d records %d live warps, counted %d", b.id, b.liveWarps, live)
		}
		if b.barrierCount < 0 || b.barrierCount > live {
			bad("block %d barrier count %d outside [0,%d]", b.id, b.barrierCount, live)
		}
		if b.pendingFaults != faults {
			bad("block %d records %d pending faults, warps hold %d", b.id, b.pendingFaults, faults)
		}
		if b.logUsed < 0 || (s.logPerBlock > 0 && b.logUsed > s.logPerBlock) {
			bad("block %d operand log occupancy %d outside [0,%d]", b.id, b.logUsed, s.logPerBlock)
		}
	}
	for _, b := range s.slots {
		if b != nil {
			check(b)
		}
	}
	for _, b := range s.offchip {
		check(b)
	}

	// bufMask marks exactly the buffered slots, and the blocked set is a
	// cache of scoreboard verdicts within it: each blocked slot holds a
	// warp the issue stage would take to its scoreboard check, whose
	// buffered instruction still fails that check and is recorded under
	// its own exec unit.
	//
	// fetchable over-approximates the slots the fetch stage would fetch
	// for: an unbuffered slot whose warp passes doFetch's checks and has
	// an instruction left must have its bit set, and no bit lies past
	// the last slot.
	for i, w := range s.warps {
		wd, bit := i>>6, uint64(1)<<(uint(i)&63)
		if buffered := w != nil && w.buf != nil; buffered != (s.bufMask[wd]&bit != 0) {
			bad("slot %d: buffered=%v but bufMask bit=%v", i, buffered, !buffered)
		}
		if s.fetchable[wd]&bit == 0 && s.bufMask[wd]&bit == 0 && w != nil && w.fetchReady() {
			if _, _, ok := w.nextFetch(); ok {
				bad("slot %d: warp %d can fetch but its fetchable bit is clear", i, w.idx)
			}
		}
		var units uint64
		for u := range s.blockedUnit {
			if s.blockedUnit[u][wd]&bit != 0 {
				units |= 1 << u
			}
		}
		if s.blocked[wd]&bit == 0 {
			if units != 0 {
				bad("slot %d: unit bits %#x outside the blocked set", i, units)
			}
			continue
		}
		switch {
		case w == nil || w.buf == nil:
			bad("slot %d blocked with no buffered instruction", i)
		case w.done || w.bufReady > now || w.block.state != blockActive || w.faultsOutstanding > 0:
			bad("slot %d blocked but its warp is not ready to issue", i)
		case units != 1<<w.buf.d.unit:
			bad("slot %d blocked under units %#x, its instruction uses %s", i, units, w.buf.d.unit)
		case s.scoreboardReady(w, w.buf):
			bad("slot %d blocked but its instruction passes the scoreboard", i)
		}
	}

	if n := len(s.warps); n&63 != 0 && s.fetchable[n>>6]>>(uint(n)&63) != 0 {
		bad("fetchable bits set past the last slot %d: %#x", n-1, s.fetchable[n>>6])
	}

	// A free flight has no callback left to fire: a stale one would
	// act on the flight's next instruction.
	s.flights.EachFree(func(f *flight) {
		switch {
		case f.pending < 0:
			bad("pooled flight has negative outstanding count %d", f.pending)
		case f.pending > 0:
			bad("pooled flight has %d callbacks outstanding", f.pending)
		}
	})

	if s.l1 != nil {
		v = append(v, s.l1.CheckInvariants(now, maxMSHRAge)...)
	}
	if s.l1tlb != nil {
		v = append(v, s.l1tlb.CheckInvariants(now, maxMSHRAge)...)
	}
	return v
}
