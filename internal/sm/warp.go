// Package sm implements the cycle-level Streaming Multiprocessor
// pipeline of Figure 1, including the paper's three preemptible
// exception schemes (Section 3) and the per-SM local block scheduler of
// use case 1 (Section 4.1, Figure 9).
//
// The pipeline models fetch, dual issue with scoreboarding and per-unit
// ports, operand read, variable-latency execution (math, special
// function, branch, shared and global memory pipelines) and
// out-of-order commit. Global memory instructions go through the
// coalescer, the per-SM L1 TLB and the L1 cache; translation misses
// continue into the shared L2 TLB and the fill unit, where page faults
// are detected.
package sm

import (
	"gpues/internal/emu"
	"gpues/internal/excep"
	"gpues/internal/isa"
	"gpues/internal/vm"
)

// fetchReason says why a warp's fetch is disabled.
type fetchReason uint8

const (
	fetchOK fetchReason = iota
	// fetchControl: a control-flow instruction was fetched; fetch
	// resumes at its commit (baseline behaviour, Section 2.1).
	fetchControl
	// fetchWarpDisable: a global memory instruction was fetched under a
	// warp-disable scheme; fetch resumes at its commit (wd-commit) or
	// its last TLB check (wd-lastcheck).
	fetchWarpDisable
)

// warpRT is the runtime state of one resident warp slot. The fields
// the fetch and issue stages read for every candidate slot come first,
// ahead of the 256-byte pendRead, so a slot's checks touch the record's
// first two cache lines (TestRecordSizes pins the first 128 bytes).
type warpRT struct {
	block *blockRT
	// trace is the warp's instruction stream, in its block's trace; it
	// is dropped when the block hands the trace back.
	trace *emu.WarpTrace

	// buf is the fetched instruction awaiting issue (1-entry
	// instruction buffer); bufReady is the cycle it becomes issuable.
	buf      *flight
	bufReady int64

	// pos is the trace position of the next instruction to fetch; its
	// index is the fetch cursor.
	pos emu.Pos

	fetchBlock        fetchReason
	atBarrier         bool
	done              bool
	faultsOutstanding int
	inFlight          int

	// replay holds the trace positions of squashed (faulted)
	// instructions, in program order; they are re-fetched before pos
	// continues. This is the replay queue content of Section 3.2 from
	// the timing perspective.
	replay []emu.Pos

	// fetchOwner is the flight whose commit/last-check unblocks fetch.
	fetchOwner *flight

	sm *SM
	// idx is the warp index within its block.
	idx int

	// Scoreboards: pendWrite marks registers with an in-flight writer
	// (released at commit); pendRead counts in-flight readers (released
	// at operand read, or at last TLB check for global memory
	// instructions under the replay-queue scheme).
	pendWrite [4]uint64
	pendRead  [isa.MaxRegs]uint8

	barFlight *flight

	// excep, when set, is the device exception the warp raised during
	// emulation: its trace ends just before the faulting instruction,
	// so the record is delivered once the warp drains (see deliverExcep).
	// excepDone marks that delivery has happened.
	excep     *excep.Record
	excepDone bool

	// Stall-attribution interval starts (cycle stamps): when the warp
	// last entered fault wait / parked at a barrier / had fetch blocked.
	faultWaitStart  int64
	barStart        int64
	fetchBlockStart int64

	// heldSrcs keeps, per squashed instruction (by trace index), the
	// source registers whose pendRead holds survive the fault under the
	// replay-queue scheme: the scheme releases global-memory sources
	// only after a successful last TLB check, so a faulted instruction
	// keeps blocking younger writers (no RAW on replay).
	heldSrcs map[int32][]isa.Reg
}

// fetchReady reports whether nothing but an empty stream keeps the
// warp from fetching: it runs, its fetch is enabled, it is not parked
// at a barrier or waiting on a fault, and its block is active.
func (w *warpRT) fetchReady() bool {
	return !w.done && w.fetchBlock == fetchOK && !w.atBarrier &&
		w.faultsOutstanding == 0 && w.block.state == blockActive
}

// memReqState tracks one coalesced request of a memory instruction.
type memReqState uint8

const (
	reqPending    memReqState = iota // translation in progress
	reqTranslated                    // translation hit, cache access in flight
	reqFaulted                       // translation faulted
	reqDone                          // data returned / store accepted
)

// memReq is one coalesced request of a memory instruction. Its line is
// read from the flight's trace (SM.line), so the record is 3 bytes.
type memReq struct {
	// idx is the request's position in flight.reqs, below 256 as an
	// instruction has at most 255 lines; with the flight's slot it
	// names the request in its events' payload (reqArg).
	idx       uint8
	state     memReqState
	faultKind vm.FaultKind
}

// flight is one in-flight dynamic instruction, a record of its SM's
// flight table (see SM.newFlight): the per-use fields below reset on
// reuse, while slice capacities persist so steady-state execution
// schedules events without allocating.
type flight struct {
	// The instruction is at pos in w's trace; d is its decode table
	// entry. No flight points into a trace, which may be recycled while
	// a squashed flight still has callbacks pending: its requests' lines
	// are read through w (SM.line), and only while the trace is w's.
	w        *warpRT
	d        *decoded
	pos      emu.Pos
	isReplay bool

	// srcHeld are the source registers still holding pendRead.
	srcHeld []isa.Reg
	// global memory execution state.
	reqs      []memReq
	tlbRem    int // requests without a first translation result
	reqRem    int // requests not yet done
	pending   int // callbacks still scheduled against reqs; see SM.settle
	faulted   bool
	squashed  bool
	logHeld   int  // operand log entries held by this instruction
	wdOwner   bool // this flight disabled its warp's fetch (wd schemes)
	committed bool

	// slot is the flight's index in SM.flights: the payload its events
	// carry.
	slot int64
}

// reqArg is the payload naming request i of flight f.
func reqArg(f *flight, i uint8) int64 { return f.slot<<8 | int64(i) }

// scoreboard helpers ---------------------------------------------------

func regBit(r isa.Reg) (int, uint64) { return int(r) >> 6, 1 << (uint64(r) & 63) }

func (w *warpRT) writePending(r isa.Reg) bool {
	if r == isa.RegNone || r == isa.RZ {
		return false
	}
	i, b := regBit(r)
	return w.pendWrite[i]&b != 0
}

func (w *warpRT) setWritePending(r isa.Reg) {
	if r == isa.RegNone || r == isa.RZ {
		return
	}
	i, b := regBit(r)
	w.pendWrite[i] |= b
}

func (w *warpRT) clearWritePending(r isa.Reg) {
	if r == isa.RegNone || r == isa.RZ {
		return
	}
	i, b := regBit(r)
	w.pendWrite[i] &^= b
	w.sm.unblockWarp(w)
}

// canIssue checks the scoreboard hazards for the buffered instruction:
// RAW (sources not pending a write), WAW (destination not pending a
// write) and WAR (destination not pending reads).
func (w *warpRT) canIssue(f *flight) bool {
	d := f.d
	for _, r := range d.sources() {
		if w.writePending(r) {
			return false
		}
	}
	if d.writes() {
		if w.writePending(d.dst) {
			return false
		}
		if w.pendRead[d.dst] > 0 {
			return false
		}
	}
	return true
}

// acquire marks the scoreboard for an issuing instruction.
func (w *warpRT) acquire(f *flight) {
	if f.d.writes() {
		w.setWritePending(f.d.dst)
	}
	w.acquireSources(f)
}

// acquireSources takes the pendRead holds for the instruction's sources.
func (w *warpRT) acquireSources(f *flight) {
	f.srcHeld = append(f.srcHeld[:0], f.d.sources()...)
	for _, r := range f.srcHeld {
		w.pendRead[r]++
	}
}

// releaseSources drops the pendRead holds of the instruction (operand
// read in the baseline; last TLB check for global memory under the
// replay-queue scheme).
func (w *warpRT) releaseSources(f *flight) {
	if len(f.srcHeld) == 0 {
		return
	}
	for _, r := range f.srcHeld {
		w.pendRead[r]--
	}
	f.srcHeld = f.srcHeld[:0]
	w.sm.unblockWarp(w)
}

// releaseDest drops the pendWrite hold (commit, or squash).
func (w *warpRT) releaseDest(f *flight) {
	if f.d.writes() {
		w.clearWritePending(f.d.dst)
	}
}

// insertReplay adds a trace position keeping program order.
func (w *warpRT) insertReplay(p emu.Pos) {
	i := len(w.replay)
	for i > 0 && w.replay[i-1].Idx > p.Idx {
		i--
	}
	w.replay = append(w.replay, emu.Pos{})
	copy(w.replay[i+1:], w.replay[i:])
	w.replay[i] = p
	w.sm.markFetchable(w)
}

// nextFetch returns the trace position this warp would fetch next,
// preferring the replay list, and whether one exists.
func (w *warpRT) nextFetch() (emu.Pos, bool, bool) {
	if len(w.replay) > 0 {
		return w.replay[0], true, true
	}
	if !w.trace.End(w.pos) {
		return w.pos, false, true
	}
	return emu.Pos{}, false, false
}

// exhausted reports whether the warp has nothing left to run.
func (w *warpRT) exhausted() bool {
	return w.trace.End(w.pos) && len(w.replay) == 0 && w.buf == nil && w.inFlight == 0
}

// canIssueReplay checks hazards for a replayed (previously squashed)
// instruction. Under the replay-queue scheme its sources are still held
// (they were never released), so only destination hazards matter, and
// the instruction's own holds on its destination are discounted. Under
// the operand-log scheme the replay reads its operands from the log
// (Figure 8b), so source RAW does not apply at all.
func (w *warpRT) canIssueReplay(f *flight, heldOwn []isa.Reg, checkSources bool) bool {
	d := f.d
	if checkSources {
		for _, r := range d.sources() {
			if w.writePending(r) {
				return false
			}
		}
	}
	if d.writes() {
		if w.writePending(d.dst) {
			return false
		}
		pr := int(w.pendRead[d.dst])
		for _, r := range heldOwn {
			if r == d.dst {
				pr--
			}
		}
		if pr > 0 {
			return false
		}
	}
	return true
}
