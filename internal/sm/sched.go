package sm

import (
	"gpues/internal/clock"
	"gpues/internal/config"
	"gpues/internal/obs"
)

// This file implements the per-SM local scheduler of use case 1
// (Section 4.1, Figure 9): on a fault it may context switch the faulted
// thread block out (its state moving to a preallocated off-chip memory
// area) and run a ready off-chip block or a fresh pending block in its
// place. At most MaxExtraBlocks additional blocks may be brought to the
// SM beyond its occupancy; past that the SM cycles through its active
// and off-chip blocks.

// maybeSwitchOut is called when a block faults; queuePos is the fault's
// position in the global pending fault queue. Switching is worthwhile
// only when the fault will wait behind others (position above the
// threshold) and there is something else to run.
func (s *SM) maybeSwitchOut(b *blockRT, queuePos int) {
	if !s.cfg.Scheme.Preemptible() {
		return
	}
	if b.state != blockActive {
		return
	}
	// A switch needs a replacement block; check before consulting the
	// chaos plan so every recorded force-switch event is a real one.
	if !s.hasWorkToSwitchIn() {
		return
	}
	// The organic policy switches on queue position; a chaos plan may
	// force the switch regardless (the scheme must still be preemptible).
	organic := s.cfg.Scheduler.Enabled && queuePos >= s.cfg.Scheduler.SwitchThreshold
	if !organic && (s.chaos == nil || !s.chaos.ForceSwitch(s.ID)) {
		return
	}
	b.state = blockDraining
	s.unblockBlock(b)
	b.switchOutStart = s.q.Now()
	s.stats.SwitchesOut++
	if s.tr != nil {
		s.tr.Emit(s.ID, obs.KSwitchOut, s.blockTID(b), uint64(b.id), uint64(queuePos))
	}
	s.afterDrainStep(b)
}

// hasWorkToSwitchIn reports whether the SM could run something in the
// freed slot: a ready off-chip block, or a fresh block within the extra
// block budget.
func (s *SM) hasWorkToSwitchIn() bool {
	for _, ob := range s.offchip {
		if ob.state == blockOffChip && ob.pendingFaults == 0 && !ob.excepted {
			return true
		}
	}
	return s.assigned < s.occupancy+s.cfg.Scheduler.MaxExtraBlocks &&
		s.src.PendingBlocks() > 0
}

// afterDrainStep advances a draining block: once every warp has no
// in-flight instruction left (a warp parked at a barrier counts as
// drained — barrier unit state is saved as part of the context), the
// context save begins.
func (s *SM) afterDrainStep(b *blockRT) {
	if b.state != blockDraining {
		return
	}
	for _, w := range b.warps {
		want := 0
		if w.atBarrier {
			want = 1
		}
		if w.inFlight > want {
			return
		}
	}
	s.saveBlock(b)
}

// contextSize is the number of bytes moved on a context switch: the
// architectural block state (registers, shared memory, control state)
// plus the replay queue entries and, under the operand-log scheme, the
// live log entries — both become part of the context (Sections 3.2,
// 3.3).
func (s *SM) contextSize(b *blockRT) int {
	size := b.contextBytes
	for _, w := range b.warps {
		size += len(w.replay) * 8
	}
	if s.cfg.Scheme == config.OperandLog {
		size += b.logUsed * s.cfg.SM.OperandLog.EntryBytes
	}
	return size
}

// move performs a context transfer, either through the DRAM model or in
// one cycle under the ideal-switch configuration (Figure 12's "ideal").
func (s *SM) move(bytes int, done clock.Event) {
	if s.cfg.Scheduler.IdealContextSwitch {
		s.q.After(1, done.Fn, done.Arg)
		return
	}
	s.mover.Move(bytes, done)
}

// saveBlock writes the drained block's context off-chip and then refills
// the slot.
func (s *SM) saveBlock(b *blockRT) {
	b.state = blockSaving
	bytes := s.contextSize(b)
	s.stats.ContextBytes += int64(bytes)
	if s.tr != nil {
		s.tr.Emit(s.ID, obs.KSaveStart, s.blockTID(b), uint64(b.id), uint64(bytes))
	}
	s.move(bytes, clock.Event{Fn: s.ev.saved, Arg: b.ref})
}

// evSaved finishes a block's context save: the block goes off-chip and
// its slot refills.
func (s *SM) evSaved(arg int64) {
	b := s.blocks.At(arg)
	s.wake()
	if s.tr != nil {
		s.tr.Emit(s.ID, obs.KSaveEnd, s.blockTID(b), uint64(b.id), 0)
	}
	slot := b.slot
	b.state = blockOffChip
	b.slot = -1
	s.slots[slot] = nil
	for i := 0; i < s.warpsPerBlock; i++ {
		s.warps[slot*s.warpsPerBlock+i] = nil
		s.clrBuf(slot*s.warpsPerBlock + i)
	}
	s.offchip = append(s.offchip, b)
	s.refillAfterSwitch(slot)
}

// refillAfterSwitch picks what to run in a slot freed by a switch-out:
// a ready off-chip block first, then a fresh pending block if the extra
// block budget allows; otherwise the slot waits for a fault resolution
// or block completion.
func (s *SM) refillAfterSwitch(slot int) {
	if s.restoreReadyBlock(slot) {
		return
	}
	if s.assigned < s.occupancy+s.cfg.Scheduler.MaxExtraBlocks {
		s.startBlock(slot)
	}
}

// restoreReadyBlock restores an off-chip block with no pending faults
// into the given slot, returning whether one was found. Its warps
// cannot fetch until evRestored makes the block active and marks them
// fetchable.
func (s *SM) restoreReadyBlock(slot int) bool {
	if s.slots[slot] != nil {
		return false
	}
	idx := -1
	for i, ob := range s.offchip {
		if ob.state == blockOffChip && ob.pendingFaults == 0 && !ob.excepted {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	b := s.offchip[idx]
	s.offchip = append(s.offchip[:idx], s.offchip[idx+1:]...)
	b.state = blockRestoring
	b.slot = slot
	s.slots[slot] = b
	for i, w := range b.warps {
		s.warps[slot*s.warpsPerBlock+i] = w
		if w != nil && w.buf != nil {
			s.setBuf(slot*s.warpsPerBlock + i)
		}
	}
	for i := len(b.warps); i < s.warpsPerBlock; i++ {
		s.warps[slot*s.warpsPerBlock+i] = nil
		s.clrBuf(slot*s.warpsPerBlock + i)
	}
	bytes := s.contextSize(b)
	s.stats.ContextBytes += int64(bytes)
	if s.tr != nil {
		s.tr.Emit(s.ID, obs.KRestoreStart, s.blockTID(b), uint64(b.id), uint64(bytes))
	}
	s.move(bytes, clock.Event{Fn: s.ev.restored, Arg: b.ref})
	return true
}

// evRestored finishes a block's context restore: the block is active
// again.
func (s *SM) evRestored(arg int64) {
	b := s.blocks.At(arg)
	s.wake()
	b.state = blockActive
	for _, w := range b.warps {
		s.markFetchable(w)
	}
	s.stats.SwitchesIn++
	s.stats.Stalls[obs.StallOffChip] += s.q.Now() - b.switchOutStart
	if s.tr != nil {
		s.tr.Emit(s.ID, obs.KRestoreEnd, s.blockTID(b), uint64(b.id), 0)
	}
}
