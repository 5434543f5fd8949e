package sm

import (
	"gpues/internal/config"
	"gpues/internal/isa"
	"gpues/internal/obs"
	"gpues/internal/tlb"
	"gpues/internal/vm"
)

// startMem begins executing a global memory instruction: the coalescer
// emits one request per unique line (already computed by the trace
// generator), each request checks the L1 TLB at one per cycle, and
// translated requests access the cache hierarchy. The cycle the final
// request finishes translation is the instruction's "last TLB check"
// (Figure 5) — the earliest point it is known not to fault.
func (s *SM) startMem(f *flight) {
	lines := f.ti.Lines
	if len(lines) == 0 {
		// All lanes predicated off: nothing to access.
		s.q.After(1, f.commitFn)
		return
	}
	n := len(lines)
	if cap(f.reqs) >= n {
		f.reqs = f.reqs[:n]
	} else {
		f.reqs = make([]memReq, n)
	}
	for i := range lines {
		f.reqs[i] = memReq{line: lines[i], idx: int32(i)}
	}
	// Extend the per-index closure set to cover this instruction's
	// request count; the closures dereference &f.reqs[i] when they fire,
	// so they survive reqs reslicing across flight reuses.
	for i := len(f.trFns); i < n; i++ {
		i := i
		f.trFns = append(f.trFns, func() { s.translate(f, &f.reqs[i]) })
		f.tlbFns = append(f.tlbFns, func(res tlb.Result) {
			s.wake()
			s.onTranslated(f, &f.reqs[i], res)
		})
		f.accFns = append(f.accFns, func() { s.accessDone(f, &f.reqs[i]) })
		f.accRetry = append(f.accRetry, func() { s.access(f, &f.reqs[i]) })
	}
	f.tlbRem = n
	f.reqRem = n
	s.stats.MemRequests += int64(n)
	for i := 0; i < n; i++ {
		s.q.After(int64(i)+1, f.trFns[i])
	}
}

// translate runs the L1 TLB lookup for one request, retrying while the
// TLB's miss resources are full.
//
//simlint:noalloc
func (s *SM) translate(f *flight, r *memReq) {
	if f.squashed {
		// The instruction was squashed after a fault; drop the request.
		return
	}
	page := r.line &^ (uint64(s.cfg.System.PageSize) - 1)
	ok := s.l1tlb.Lookup(page, f.tlbFns[r.idx])
	if !ok {
		s.l1tlb.OnFree(f.trFns[r.idx])
	}
}

//simlint:noalloc
func (s *SM) onTranslated(f *flight, r *memReq, res tlb.Result) {
	if f.squashed {
		return
	}
	first := r.state == reqPending
	if res.Present {
		r.state = reqTranslated
		s.access(f, r)
	} else {
		r.state = reqFaulted
		r.faultKind = res.Fault
		f.faulted = true
	}
	// Baseline stall-on-fault re-translations arrive after the last TLB
	// check already fired; only first-pass results count toward it.
	if first && f.tlbRem > 0 {
		f.tlbRem--
		if f.tlbRem == 0 {
			s.lastTLBCheck(f)
		}
	}
}

// lastTLBCheck fires when every coalesced request has its first
// translation result. With no faults this is the instruction's
// fault-safe point: wd-lastcheck re-enables fetch, the replay-queue
// scheme releases the deferred source operands, and the operand log
// frees the instruction's entries. With faults, the scheme-specific
// fault path runs.
//
//simlint:noalloc
func (s *SM) lastTLBCheck(f *flight) {
	w := f.w
	s.event("lastcheck", w, f.tIdx)
	if s.tr != nil {
		var faulted uint64
		if f.faulted {
			faulted = 1
		}
		s.tr.Emit(s.ID, obs.KLastCheck, s.warpID(w), uint64(f.tIdx), faulted)
	}
	if !f.faulted {
		if f.wdOwner && s.cfg.Scheme == config.WarpDisableLastCheck && w.fetchOwner == f {
			s.clearFetchBlock(w)
		}
		if s.cfg.Scheme == config.ReplayQueue {
			w.releaseSources(f)
		}
		if s.cfg.Scheme == config.OperandLog && f.logHeld > 0 {
			w.block.logUsed -= f.logHeld
			f.logHeld = 0
		}
		return
	}
	s.stats.Faults++
	if s.cfg.Scheme == config.Baseline {
		s.stallOnFault(f)
		return
	}
	s.squashAndRaise(f)
}

// access sends a translated request into the cache hierarchy, retrying
// while the L1 MSHRs are full. Loads wait for data; stores and atomics
// are write accesses (write-through at L1).
//
//simlint:noalloc
func (s *SM) access(f *flight, r *memReq) {
	if f.squashed {
		return
	}
	write := f.ti.Static.Op == isa.OpStGlobal || f.ti.Static.Op == isa.OpAtomGlobal
	ok := s.l1.Access(r.line, write, f.accFns[r.idx])
	if !ok {
		s.l1.OnFree(f.accRetry[r.idx])
	}
}

// accessDone is the cache-hierarchy completion for one request.
//
//simlint:noalloc
func (s *SM) accessDone(f *flight, r *memReq) {
	s.wake()
	if f.squashed || r.state == reqDone {
		return
	}
	r.state = reqDone
	f.reqRem--
	if f.reqRem == 0 && !f.faulted {
		s.q.After(1, f.commitFn)
	}
}

// stallOnFault implements the baseline behaviour (Section 2.3): the
// faulting instruction stays in the pipeline while the CPU resolves the
// fault; afterwards only the memory request is replayed (re-translated,
// now hitting), not the instruction.
func (s *SM) stallOnFault(f *flight) {
	for i := range f.reqs {
		r := &f.reqs[i]
		if r.state != reqFaulted {
			continue
		}
		page := r.line &^ (uint64(s.cfg.System.PageSize) - 1)
		s.sink.RaiseFault(page, r.faultKind, s.ID, func() {
			s.wake()
			if f.squashed {
				return
			}
			r.state = reqPending
			s.translate(f, r)
		})
	}
	// Faulted requests will re-translate; clear the flag so the final
	// completion check in access() can commit the instruction.
	f.faulted = false
}

// squashAndRaise implements the preemptible fault path (Section 3): the
// faulting instruction is squashed — scoreboard holds and pipeline
// resources released — and recorded for replay; the warp stops fetching
// until all its faults resolve. Under the warp-disable schemes the
// squashed instruction is by construction the youngest in flight; under
// replay-queue/operand-log older non-faulted instructions keep draining.
func (s *SM) squashAndRaise(f *flight) {
	w := f.w
	f.squashed = true
	s.stats.Squashed++
	s.event("squash", w, f.tIdx)
	s.trace(obs.KSquash, w, f.tIdx)
	w.releaseDest(f)
	if s.cfg.Scheme == config.ReplayQueue && len(f.srcHeld) > 0 {
		// Replay-queue: the faulted instruction's source holds survive
		// the fault, keeping younger writers blocked (WAR) until the
		// replay passes its TLB checks.
		if w.heldSrcs == nil {
			w.heldSrcs = make(map[int32][]isa.Reg)
		}
		w.heldSrcs[f.tIdx] = append([]isa.Reg(nil), f.srcHeld...)
		f.srcHeld = f.srcHeld[:0]
	} else {
		w.releaseSources(f)
	}
	w.inFlight--
	// The operand log keeps the squashed instruction's entries: the
	// replay reads its operands from the log (Figure 8b). They free at
	// the replay's successful last TLB check.
	w.insertReplay(f.tIdx)
	s.met.ReplayOcc.Observe(int64(len(w.replay)))
	if w.fetchOwner == f {
		s.clearFetchBlock(w)
	}
	// Revert the program counter to the oldest non-issued instruction:
	// a younger instruction still in the fetch buffer is flushed so the
	// replay is fetched first (it may be WAR-blocked by the replay's
	// retained source holds, and must in any case run before younger
	// code).
	if buf := w.buf; buf != nil {
		if buf.isReplay {
			w.insertReplay(buf.tIdx)
			s.met.ReplayOcc.Observe(int64(len(w.replay)))
		} else if int(buf.tIdx) < w.cursor {
			w.cursor = int(buf.tIdx)
		}
		if w.fetchOwner == buf {
			s.clearFetchBlock(w)
		}
		w.buf = nil
		s.clrBuf(s.warpIndex(w))
		// The flushed flight never issued, so nothing was scheduled
		// against it; it can go straight back to the pool.
		s.freeFlight(buf)
	}
	// Collect the distinct faulting pages.
	kinds := make(map[uint64]vm.FaultKind)
	var pages []uint64
	for i := range f.reqs {
		r := &f.reqs[i]
		if r.state == reqFaulted {
			page := r.line &^ (uint64(s.cfg.System.PageSize) - 1)
			if _, seen := kinds[page]; !seen {
				kinds[page] = r.faultKind
				pages = append(pages, page)
			}
		}
	}
	if len(pages) > 0 && w.faultsOutstanding == 0 {
		w.faultWaitStart = s.q.Now()
	}
	w.faultsOutstanding += len(pages)
	s.unblockWarp(w)
	b := w.block
	b.pendingFaults += len(pages)
	maxPos := 0
	for _, page := range pages {
		page := page
		if s.tr != nil {
			s.tr.Emit(s.ID, obs.KFaultRaised, s.warpID(w), page, uint64(kinds[page]))
		}
		pos := s.sink.RaiseFault(page, kinds[page], s.ID, func() {
			s.wake()
			w.faultsOutstanding--
			b.pendingFaults--
			if s.tr != nil {
				s.tr.Emit(s.ID, obs.KFaultResolved, s.warpID(w), page, uint64(w.faultsOutstanding))
			}
			if w.faultsOutstanding == 0 {
				s.stats.Stalls[obs.StallFaultWait] += s.q.Now() - w.faultWaitStart
			}
			s.onFaultResolved(w, b)
		})
		if pos > maxPos {
			maxPos = pos
		}
	}
	s.afterDrainStep(b)
	s.checkWarpDone(w)
	s.maybeSwitchOut(b, maxPos)
}

// onFaultResolved resumes a warp (or wakes an off-chip block) when one
// of its faults resolves.
func (s *SM) onFaultResolved(w *warpRT, b *blockRT) {
	if b.state == blockOffChip && b.pendingFaults == 0 {
		// A slot may already be free; restore eagerly.
		for slot := range s.slots {
			if s.slots[slot] == nil {
				s.restoreReadyBlock(slot)
				return
			}
		}
	}
	s.checkWarpDone(w)
}
