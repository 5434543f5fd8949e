package sm

import (
	"math"
	"slices"

	"gpues/internal/clock"
	"gpues/internal/config"
	"gpues/internal/isa"
	"gpues/internal/obs"
	"gpues/internal/tlb"
)

// startMem begins executing a global memory instruction: the coalescer
// emits one request per unique line (already computed by the trace
// generator), each request checks the L1 TLB at one per cycle, and
// translated requests access the cache hierarchy. The cycle the final
// request finishes translation is the instruction's "last TLB check"
// (Figure 5) — the earliest point it is known not to fault.
//
//simlint:noalloc
func (s *SM) startMem(f *flight) {
	n := f.w.trace.NumLines(f.pos)
	if n == 0 {
		// All lanes predicated off: nothing to access.
		s.q.After(1, s.ev.commit, f.slot)
		return
	}
	if cap(f.reqs) >= n {
		f.reqs = f.reqs[:n]
	} else {
		//simlint:ignore noalloc grow path, once per flight per larger request count
		f.reqs = make([]memReq, n)
	}
	for i := range f.reqs {
		f.reqs[i] = memReq{idx: uint8(i)}
	}
	f.tlbRem = n
	f.reqRem = n
	s.stats.MemRequests += int64(n)
	f.pending += n
	for i := 0; i < n; i++ {
		s.q.After(int64(i)+1, s.ev.translate, reqArg(f, uint8(i)))
	}
}

// req returns the flight and request a request payload names.
func (s *SM) req(arg int64) (*flight, *memReq) {
	f := s.flights.At(arg >> 8)
	return f, &f.reqs[uint8(arg)]
}

// line returns the line request r of flight f accesses, read from the
// warp's trace. A squashed flight may ask only while its warp waits on
// the faults it raised: after that its block may finish and hand the
// trace back.
func (s *SM) line(f *flight, r *memReq) uint64 { return f.w.trace.LineAt(f.pos, int(r.idx)) }

// The request events: each runs one step for the request its payload
// names and then settles the callback it was counted as.

func (s *SM) evTranslate(arg int64) {
	f, r := s.req(arg)
	s.translate(f, r)
	s.settle(f)
}

func (s *SM) evTranslated(arg int64, res tlb.Result) {
	s.wake()
	f, r := s.req(arg)
	s.onTranslated(f, r, res)
	s.settle(f)
}

func (s *SM) evAccess(arg int64) {
	f, r := s.req(arg)
	s.access(f, r)
	s.settle(f)
}

func (s *SM) evAccessDone(arg int64) {
	f, r := s.req(arg)
	s.accessDone(f, r)
	s.settle(f)
}

// settle ends one event scheduled against the flight's requests (a
// translate event, an L1 TLB lookup or its retry, an L1 access or its
// retry, a baseline re-translate, a squashed instruction's fault
// resolution), each counted in f.pending when it was scheduled. A
// squashed flight is freed when its last one has fired: until then a
// stale event may still read its squashed flag.
//
//simlint:releases 0
//simlint:noalloc
func (s *SM) settle(f *flight) {
	f.pending--
	if f.squashed && f.pending == 0 {
		s.flights.Free(f.slot, f)
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
	arg := reqArg(f, r.idx)
	ok := s.l1tlb.Lookup(s.page(s.line(f, r)), s.tags.translated|arg)
	if !ok {
		s.l1tlb.OnFree(clock.Event{Fn: s.ev.translate, Arg: arg})
	}
	f.pending++
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
	s.event("lastcheck", w, f.pos.Idx)
	if s.tr != nil {
		var faulted uint64
		if f.faulted {
			faulted = 1
		}
		s.tr.Emit(s.ID, obs.KLastCheck, s.warpID(w), uint64(f.pos.Idx), faulted)
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
	arg := reqArg(f, r.idx)
	ok := s.l1.Access(s.line(f, r), f.d.write, clock.Event{Fn: s.ev.accessDone, Arg: arg})
	if !ok {
		s.l1.OnFree(clock.Event{Fn: s.ev.access, Arg: arg})
	}
	f.pending++
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
		s.q.After(1, s.ev.commit, f.slot)
	}
}

// stallOnFault implements the baseline behaviour (Section 2.3): the
// faulting instruction stays in the pipeline while the CPU resolves the
// fault; afterwards only the memory request is replayed (re-translated,
// now hitting), not the instruction. The resolution's payload names
// the faulted request.
//
//simlint:noalloc
func (s *SM) stallOnFault(f *flight) {
	for i := range f.reqs {
		r := &f.reqs[i]
		if r.state != reqFaulted {
			continue
		}
		f.pending++
		s.sink.RaiseFault(s.page(s.line(f, r)), r.faultKind, s.ID, s.tags.refault|reqArg(f, r.idx))
	}
	// Faulted requests will re-translate; clear the flag so the final
	// completion check in access() can commit the instruction.
	f.faulted = false
}

// evRefault re-translates a baseline request whose fault resolved.
func (s *SM) evRefault(arg int64) {
	s.wake()
	f, r := s.req(arg)
	if !f.squashed {
		r.state = reqPending
		s.translate(f, r)
	}
	s.settle(f)
}

// squashAndRaise implements the preemptible fault path (Section 3): the
// faulting instruction is squashed — scoreboard holds and pipeline
// resources released — and recorded for replay; the warp stops fetching
// until all its faults resolve. Under the warp-disable schemes the
// squashed instruction is by construction the youngest in flight; under
// replay-queue/operand-log older non-faulted instructions keep draining.
// Each raised page's resolution carries the payload of the request that
// raised it and counts in f.pending, so the squashed flight stays live
// until its last fault resolves.
//
//simlint:noalloc
func (s *SM) squashAndRaise(f *flight) {
	w := f.w
	f.squashed = true
	s.stats.Squashed++
	s.event("squash", w, f.pos.Idx)
	s.trace(obs.KSquash, w, f.pos.Idx)
	w.releaseDest(f)
	if s.cfg.Scheme == config.ReplayQueue && len(f.srcHeld) > 0 {
		// Replay-queue: the faulted instruction's source holds survive
		// the fault, keeping younger writers blocked (WAR) until the
		// replay passes its TLB checks. The flight's slice moves to the
		// warp's map as it is, and the flight takes a spare; the
		// replay's issue hands one back.
		if w.heldSrcs == nil {
			//simlint:ignore noalloc once per warp that ever faults under replay-queue
			w.heldSrcs = make(map[int32][]isa.Reg)
		}
		w.heldSrcs[f.pos.Idx] = f.srcHeld
		f.srcHeld = nil
		if n := len(s.spareRegs); n > 0 {
			f.srcHeld = s.spareRegs[n-1]
			s.spareRegs = s.spareRegs[:n-1]
		}
	} else {
		w.releaseSources(f)
	}
	w.inFlight--
	// The operand log keeps the squashed instruction's entries: the
	// replay reads its operands from the log (Figure 8b). They free at
	// the replay's successful last TLB check.
	w.insertReplay(f.pos)
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
			w.insertReplay(buf.pos)
			s.met.ReplayOcc.Observe(int64(len(w.replay)))
		} else if buf.pos.Idx < w.pos.Idx {
			w.pos = buf.pos
		}
		if w.fetchOwner == buf {
			s.clearFetchBlock(w)
		}
		w.buf = nil
		s.clrBuf(s.warpIndex(w))
		// The flushed flight never issued, so nothing was scheduled
		// against it; it can be freed at once.
		s.flights.Free(buf.slot, buf)
	}
	// Raise each distinct faulting page once, in request order, with
	// the kind of its first faulting request. An instruction has at
	// most 255 requests.
	var pages [math.MaxUint8]uint64
	var first [math.MaxUint8]uint8 // the request that raises pages[k]
	n := 0
	for i := range f.reqs {
		if f.reqs[i].state != reqFaulted {
			continue
		}
		if page := s.page(s.line(f, &f.reqs[i])); !slices.Contains(pages[:n], page) {
			pages[n], first[n] = page, uint8(i)
			n++
		}
	}
	if n > 0 && w.faultsOutstanding == 0 {
		w.faultWaitStart = s.q.Now()
	}
	w.faultsOutstanding += n
	s.unblockWarp(w)
	b := w.block
	b.pendingFaults += n
	maxPos := 0
	for k, i := range first[:n] {
		page, kind := pages[k], f.reqs[i].faultKind
		if s.tr != nil {
			s.tr.Emit(s.ID, obs.KFaultRaised, s.warpID(w), page, uint64(kind))
		}
		f.pending++
		pos := s.sink.RaiseFault(page, kind, s.ID, s.tags.faultDone|reqArg(f, i))
		if pos > maxPos {
			maxPos = pos
		}
	}
	s.afterDrainStep(b)
	s.checkWarpDone(w)
	s.maybeSwitchOut(b, maxPos)
}

// evFaultDone resolves the page one request of a squashed instruction
// raised.
func (s *SM) evFaultDone(arg int64) {
	f, r := s.req(arg)
	w := f.w
	b := w.block
	s.wake()
	w.faultsOutstanding--
	b.pendingFaults--
	if s.tr != nil {
		s.tr.Emit(s.ID, obs.KFaultResolved, s.warpID(w), s.page(s.line(f, r)), uint64(w.faultsOutstanding))
	}
	if w.faultsOutstanding == 0 {
		s.stats.Stalls[obs.StallFaultWait] += s.q.Now() - w.faultWaitStart
		s.markFetchable(w)
	}
	s.onFaultResolved(w, b)
	s.settle(f)
}

// page returns the page holding a line.
func (s *SM) page(line uint64) uint64 { return line &^ (uint64(s.cfg.System.PageSize) - 1) }

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
