package sm

import (
	"math/bits"

	"gpues/internal/cache"
	"gpues/internal/clock"
	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/excep"
	"gpues/internal/isa"
	"gpues/internal/kernel"
	"gpues/internal/obs"
	"gpues/internal/tlb"
	"gpues/internal/vm"
)

// FaultSink receives page faults detected by the SM's memory pipeline.
// It is implemented by the system-level exception unit (internal/core),
// which routes faults to the CPU driver or the GPU-local handler.
type FaultSink interface {
	// Attach registers the handler a client's resolved faults run, and
	// returns the client's tag (see clock.Clients).
	Attach(resolved clock.Handler) int64
	// RaiseFault reports a faulting page. waiter is a client's tag ORed
	// with a payload: the client's handler runs with the payload when
	// the fault (its 64 KB handling region) has been resolved. The
	// return value is the position of the fault in the global pending
	// fault queue, which the local scheduler compares against its
	// switch threshold.
	RaiseFault(pageVA uint64, kind vm.FaultKind, smID int, waiter int64) int
}

// BlockSource hands out pending thread blocks (the global thread block
// scheduler of Figure 1) and is notified of completions.
type BlockSource interface {
	// NextBlock returns the trace of the next pending block, or false
	// when the grid is exhausted.
	NextBlock(smID int) (*emu.BlockTrace, bool)
	// BlockDone reports a completed block and hands its trace back:
	// the source may recycle it at once, and the SM holds no view of
	// it any more.
	BlockDone(smID int, bt *emu.BlockTrace)
	// PendingBlocks returns how many blocks have not been issued yet.
	PendingBlocks() int
}

// ContextMover moves block context to/from off-chip memory (the DRAM
// model); done runs when the transfer completes.
type ContextMover interface {
	Move(bytes int, done clock.Event)
}

// ExcepSink receives device-raised exception records once the timing
// layer delivers them; the host exception board (internal/host)
// implements it by latching the record behind the host-mapped
// exception flag that the driver polls at API-call granularity.
type ExcepSink interface {
	// PostExcep publishes one exception record at the given cycle.
	PostExcep(now int64, r *excep.Record)
}

// Chaos is the SM's fault-injection hook (internal/chaos implements
// it): StallIssue may artificially hold back an issuable global-memory
// instruction for a cycle (operand-log / replay-queue back-pressure);
// ForceSwitch may switch a faulting block out regardless of its
// pending-queue position. A nil Chaos costs a pointer test.
type Chaos interface {
	StallIssue(smID int, isReplay bool) bool
	ForceSwitch(smID int) bool
}

// Stats counts SM activity.
type Stats struct {
	Cycles         int64
	ActiveCycles   int64 // cycles with at least one fetch or issue
	Committed      int64
	Issued         int64
	Fetched        int64
	GlobalMemInsts int64
	MemRequests    int64
	Faults         int64
	Squashed       int64
	Replays        int64
	BlocksRun      int64
	SwitchesOut    int64
	SwitchesIn     int64
	ContextBytes   int64
	// Exceptions counts device-exception records this SM delivered to
	// the host exception board.
	Exceptions      int64
	IssueStallLog   int64 // operand log full
	IssueStallScore int64 // scoreboard hazard
	IssueStallChaos int64 // injected back-pressure (chaos plans)
	// Stalls is the full per-reason breakdown: issue-stage stall
	// occurrences (scoreboard, port, log-full, chaos) and blocked-cycle
	// intervals (fault-wait, barrier, fetch-control, fetch-warp-disable,
	// off-chip). The IssueStall* fields above are retained views of
	// three of its buckets.
	Stalls obs.StallBreakdown
}

type blockState uint8

const (
	blockActive blockState = iota
	blockDraining
	blockSaving
	blockOffChip
	blockRestoring
)

// blockRT is a resident (or switched-out) thread block.
type blockRT struct {
	ref   int64 // index in SM.blocks, the payload of its context-transfer events
	id    int
	slot  int // SM block slot while active; -1 when off-chip
	state blockState
	warps []*warpRT
	// trace is the block's dynamic trace, held (off-chip too) until
	// the block finishes.
	trace *emu.BlockTrace

	liveWarps     int // warps not done
	barrierCount  int
	logUsed       int // operand log entries in use
	pendingFaults int // unresolved faults across its warps
	contextBytes  int
	// excepted marks a block squashed by preemptible exception
	// delivery: it drains, saves off-chip, and is never restored or
	// finished — the host terminates the launch at its next poll.
	excepted bool
	// switchOutStart is the cycle the block began draining for a switch
	// (off-chip stall attribution).
	switchOutStart int64
}

// SM is one streaming multiprocessor.
type SM struct {
	//simlint:ckptskip identity assigned at construction; the checkpoint section is keyed by it
	ID int
	//simlint:ckptskip immutable run configuration, re-supplied by the harness
	cfg *config.Config
	//simlint:ckptskip wiring to the shared event queue, which checkpoints itself as the clock section
	q *clock.Queue

	//simlint:ckptskip wiring to the private L1, which checkpoints itself as its own section
	l1 *cache.Cache
	//simlint:ckptskip wiring to the private L1 TLB, which checkpoints itself as its own section
	l1tlb *tlb.TLB
	//simlint:ckptskip wiring to the fault coordinator, which checkpoints itself as its own section
	sink FaultSink
	// The client tags of the SM's handlers at the L1 TLB and the fault
	// sink, ORed with a request's payload (reqArg) to make its waiter.
	//simlint:ckptskip client tags, fixed at construction
	tags struct{ translated, refault, faultDone int64 }
	//simlint:ckptskip wiring to the block dispatcher, which checkpoints itself as its own section
	src BlockSource
	//simlint:ckptskip wiring to the context mover, a stateless adapter over DRAM, which checkpoints itself as the dram section
	mover ContextMover
	//simlint:ckptskip chaos hook, fixed when the plan is attached; the plan checkpoints its progress as the chaos section
	chaos Chaos
	//simlint:ckptskip wiring to the exception board, which checkpoints itself as its own section
	excep ExcepSink

	//simlint:ckptskip kernel launch description, re-supplied by the replayed workload
	launch *kernel.Launch
	//simlint:ckptskip derived from launch at BeginKernel; the spec fingerprint covers the launch
	occupancy int // concurrent blocks this kernel supports
	//simlint:ckptskip derived from launch at BeginKernel; the spec fingerprint covers the launch
	warpsPerBlock int
	//simlint:ckptskip derived from launch at BeginKernel; the spec fingerprint covers the launch
	logPerBlock int // operand log entries per block partition
	//simlint:ckptskip derived from launch at BeginKernel; the spec fingerprint covers the launch
	blockBytes int // architectural context size of one block
	//simlint:ckptskip derived from launch at PrepareLaunch; the spec fingerprint covers the kernel
	decode []decoded // per static instruction, indexed by PC

	slots   []*blockRT // active block slots (nil = free)
	offchip []*blockRT // switched-out blocks
	// assigned counts blocks this SM currently owns in any state.
	assigned int

	//simlint:ckptskip flat view over the blocks' warp arrays; saveBlock serializes every warp through its owning block
	warps     []*warpRT // all warp slots (occupancy * warpsPerBlock)
	lastFetch int
	lastIssue int
	// bufMask marks warp slots holding a fetched instruction (bit i set
	// iff warps[i] != nil && warps[i].buf != nil). doIssue walks only
	// the set bits, and doFetch only the clear ones, each in the same
	// ascending wrap-around order as a full slot scan.
	bufMask []uint64
	// fetchable over-approximates the slots doFetch could fetch for: a
	// slot whose warp would pass its checks has its bit set. doFetch
	// walks only these bits, and clears the bit of each slot it turns
	// away; markFetchable sets it again at every transition that can let
	// the warp fetch (activation, restore, barrier release, fetch
	// re-enabled, last fault resolved, an instruction queued for
	// replay). A bit too many costs one visit; a missing one would skip
	// a fetch, which CheckInvariants catches.
	//simlint:ckptskip derived cache of fetch-stage verdicts; a full set changes no outcome, it only costs visits
	fetchable []uint64
	// blocked marks the buffered slots whose instruction failed its
	// scoreboard check, and blockedUnit[u] those of them bound for exec
	// unit u. A bit stays set only while nothing that could change the
	// verdict has happened (see unblockWarp), so doIssue passes blocked
	// slots without visiting them and counts their stalls in bulk.
	//simlint:ckptskip derived cache of issue-stage scoreboard verdicts; an empty set changes no outcome, it only costs re-checks
	blocked []uint64
	//simlint:ckptskip derived cache of issue-stage scoreboard verdicts; an empty set changes no outcome, it only costs re-checks
	blockedUnit [numUnits][]uint64

	// flights holds every flight the SM ever built, by slot: the
	// payload that names a flight, or one of its requests, in a
	// scheduled event.
	//simlint:ckptskip flight table by slot; flights are represented by the per-warp counts and flags that name them
	flights clock.Table[flight]
	// blocks holds the activation records of the SM's blocks, each
	// with its warp records; a context transfer's events carry the
	// block's index. A finished block's records are freed for the next
	// block to reuse; a block switched out keeps its records.
	//simlint:ckptskip activation records by index; SaveState records each block through slots and offchip
	blocks clock.Table[blockRT]
	//simlint:ckptskip handlers built once in New
	ev handlers
	// ports is each exec unit's issue ports per cycle, indexed by
	// isa.Unit, from cfg; UnitNone instructions are bounded only by the
	// issue width.
	//simlint:ckptskip immutable, derived from the run configuration in New
	ports [numUnits]int
	// spareRegs are empty source-hold slices: a squash under
	// replay-queue moves its flight's slice into the warp's heldSrcs
	// and takes one from here, and the replay's issue returns one.
	//simlint:ckptskip free list, a pure allocation cache that holds no simulated state
	spareRegs [][]isa.Reg

	idle  bool // nothing proceeded last tick; sleep until next event
	stats Stats

	// onWake, when set, fires on the idle→awake transition; the main
	// loop uses it to put the SM back into its active set.
	//simlint:ckptskip wake callback into the main loop, fixed at construction; the loop's active set checkpoints as the sim.core section
	onWake func()

	// OnEvent, when set, receives pipeline events for tests and tracing:
	// kind is one of "fetch", "issue", "lastcheck", "commit", "squash";
	// tIdx is the dynamic instruction's trace index within its warp.
	//simlint:ckptskip test and tracing hook; observability, not simulation state
	OnEvent func(kind string, warp int, tIdx int32, cycle int64)

	// tr, when attached, receives typed trace events (internal/obs); a
	// nil tracer costs one branch per emission site.
	//simlint:ckptskip tracer wiring; trace emission is observability, not simulation state
	tr *obs.Tracer
	// met holds the shared aggregate instruments the simulator passes
	// in; its pointers are nil-safe, so observations run unconditionally.
	//simlint:ckptskip wiring to shared instruments; the obs registry checkpoints them as its own section
	met Metrics
}

// Metrics are the aggregate instruments the simulator shares across its
// SMs. The zero value records nothing.
type Metrics struct {
	// ReplayOcc samples the replay list length at each insertion
	// (Section 3.2 replay queue occupancy).
	ReplayOcc *obs.Histogram
	// LogOcc samples a block's operand log occupancy at each
	// allocation (Section 3.3).
	LogOcc *obs.Histogram
}

// event fires the OnEvent hook.
func (s *SM) event(kind string, w *warpRT, tIdx int32) {
	if s.OnEvent != nil {
		s.OnEvent(kind, w.idx, tIdx, s.q.Now())
	}
}

// SetTracer attaches the event tracer; nil removes it.
func (s *SM) SetTracer(tr *obs.Tracer) { s.tr = tr }

// SetMetrics installs the shared instruments.
func (s *SM) SetMetrics(m Metrics) { s.met = m }

// warpID is a warp's stable identity across context switches:
// blockID*warpsPerBlock + warp index (the trace timeline key).
func (s *SM) warpID(w *warpRT) int32 {
	return int32(w.block.id*s.warpsPerBlock + w.idx)
}

// blockTID is the timeline key block-level events share with the
// block's first warp.
func (s *SM) blockTID(b *blockRT) int32 { return int32(b.id * s.warpsPerBlock) }

// trace emits one pipeline-shaped event (A=trace index, B=block id).
func (s *SM) trace(k obs.Kind, w *warpRT, tIdx int32) {
	if s.tr == nil {
		return
	}
	s.tr.Emit(s.ID, k, s.warpID(w), uint64(tIdx), uint64(w.block.id))
}

// stall counts one issue-stage stall occurrence and traces it.
func (s *SM) stall(w *warpRT, f *flight, r obs.StallReason) {
	s.stats.Stalls[r]++
	if s.tr == nil {
		return
	}
	s.tr.Emit(s.ID, obs.KStall, s.warpID(w), uint64(r), uint64(f.pos.Idx))
}

// handlers are the SM's event handlers, method values built once in
// New. A flight's events carry its slot; a request's carry reqArg.
type handlers struct {
	opRead     clock.Handler                 // slot: operand read
	commit     clock.Handler                 // slot: commit
	translate  clock.Handler                 // request: L1 TLB lookup, and its retry
	translated func(arg int64, r tlb.Result) // request: L1 TLB result
	access     clock.Handler                 // request: L1 access retry
	accessDone clock.Handler                 // request: L1 access completion
	refault    clock.Handler                 // request: baseline fault resolved, re-translate
	faultDone  clock.Handler                 // request: squashed instruction's fault resolved
	saved      clock.Handler                 // block index: context save finished
	restored   clock.Handler                 // block index: context restore finished
}

// New builds an SM bound to its L1 cache, L1 TLB and the system-level
// services.
func New(id int, cfg *config.Config, q *clock.Queue, l1 *cache.Cache, l1tlb *tlb.TLB,
	sink FaultSink, src BlockSource, mover ContextMover) *SM {
	s := &SM{
		ID:    id,
		cfg:   cfg,
		q:     q,
		l1:    l1,
		l1tlb: l1tlb,
		sink:  sink,
		src:   src,
		mover: mover,
	}
	s.ev = handlers{
		opRead:     s.evOpRead,
		commit:     s.evCommit,
		translate:  s.evTranslate,
		translated: s.evTranslated,
		access:     s.evAccess,
		accessDone: s.evAccessDone,
		refault:    s.evRefault,
		faultDone:  s.evFaultDone,
		saved:      s.evSaved,
		restored:   s.evRestored,
	}
	s.ports = [numUnits]int{
		isa.UnitMath:      cfg.SM.MathUnits,
		isa.UnitSpecial:   cfg.SM.SpecialUnits,
		isa.UnitLoadStore: cfg.SM.LoadStore,
		isa.UnitBranch:    cfg.SM.BranchUnits,
		isa.UnitNone:      cfg.SM.IssueWidth,
	}
	s.tags.translated = l1tlb.Attach(s.ev.translated)
	s.tags.refault = sink.Attach(s.ev.refault)
	s.tags.faultDone = sink.Attach(s.ev.faultDone)
	return s
}

// Stats returns a copy of the counters.
func (s *SM) Stats() Stats { return s.stats }

// Progress is the SM's term of the simulator's watchdog signature:
// committed instructions plus context bytes moved plus blocks switched
// in. It reads three counters instead of copying the whole Stats.
func (s *SM) Progress() int64 {
	return s.stats.Committed + s.stats.ContextBytes + s.stats.SwitchesIn
}

// SetChaos installs the fault-injection hook; nil removes it.
func (s *SM) SetChaos(c Chaos) { s.chaos = c }

// SetExcepSink installs the device-exception sink; nil removes it.
func (s *SM) SetExcepSink(e ExcepSink) { s.excep = e }

// PrepareLaunch sizes the SM for a kernel launch: computes occupancy,
// partitions the operand log among the resident blocks (Section 3.3),
// and derives the per-block context size used by the switching cost
// model.
func (s *SM) PrepareLaunch(l *kernel.Launch) {
	s.launch = l
	s.occupancy = l.Occupancy(s.cfg.SM.MaxThreadBlocks, s.cfg.SM.MaxWarps,
		s.cfg.SM.WarpSize, s.cfg.SM.RegisterFileKB, s.cfg.SM.SharedMemoryKB)
	s.warpsPerBlock = l.WarpsPerBlock(s.cfg.SM.WarpSize)
	if s.cfg.Scheme == config.OperandLog && s.occupancy > 0 {
		s.logPerBlock = s.cfg.SM.OperandLog.Entries() / s.occupancy
		if s.logPerBlock < 1 {
			s.logPerBlock = 1
		}
	} else {
		s.logPerBlock = 0
	}
	// Context of one block: registers of all threads (4 B units),
	// static shared memory, and divergence/barrier control state.
	regBytes := l.Kernel.RegsPerThread * 4 * l.ThreadsPerBlock()
	s.blockBytes = regBytes + l.Kernel.SharedMemBytes + 64*s.warpsPerBlock
	s.decode = decodeKernel(l.Kernel.Code, &s.cfg.SM)

	s.slots = make([]*blockRT, s.occupancy)
	s.offchip = nil
	s.assigned = 0
	s.warps = make([]*warpRT, s.occupancy*s.warpsPerBlock)
	s.lastFetch, s.lastIssue = 0, 0
	s.bufMask = make([]uint64, (len(s.warps)+63)/64)
	s.fetchable = make([]uint64, len(s.bufMask))
	s.blocked = make([]uint64, len(s.bufMask))
	for u := range s.blockedUnit {
		s.blockedUnit[u] = make([]uint64, len(s.bufMask))
	}
	s.idle = false
}

// Occupancy returns the number of concurrent blocks for the prepared
// launch.
func (s *SM) Occupancy() int { return s.occupancy }

// FillBlocks pulls blocks from the source until all slots are occupied
// or the grid is exhausted (initial batch at launch).
func (s *SM) FillBlocks() {
	for slot := range s.slots {
		if s.slots[slot] == nil {
			if !s.startBlock(slot) {
				return
			}
		}
	}
}

// startBlock activates the next pending block in the given slot.
func (s *SM) startBlock(slot int) bool {
	bt, ok := s.src.NextBlock(s.ID)
	if !ok {
		return false
	}
	s.activateBlock(slot, bt)
	return true
}

// activateBlock installs a block trace into a slot, on an activation
// record a finished block freed when there is one.
func (s *SM) activateBlock(slot int, bt *emu.BlockTrace) {
	b := s.newBlock(len(bt.Warps))
	*b = blockRT{
		ref:          b.ref,
		id:           bt.BlockID,
		slot:         slot,
		state:        blockActive,
		warps:        b.warps,
		trace:        bt,
		contextBytes: s.blockBytes,
	}
	for i := range bt.Warps {
		w := b.warps[i]
		*w = warpRT{
			sm:       s,
			block:    b,
			idx:      i,
			trace:    &bt.Warps[i],
			excep:    bt.Warps[i].Excep,
			replay:   w.replay[:0],
			heldSrcs: w.heldSrcs,
		}
		if w.trace.Len == 0 {
			w.done = true
		} else {
			b.liveWarps++
		}
		s.warps[slot*s.warpsPerBlock+i] = w
		s.markFetchable(w)
	}
	// Blocks may have fewer warps than the slot width (never more).
	for i := len(bt.Warps); i < s.warpsPerBlock; i++ {
		s.warps[slot*s.warpsPerBlock+i] = nil
	}
	s.slots[slot] = b
	s.assigned++
	s.stats.BlocksRun++
	s.wake()
	// A warp that faulted before executing any instruction has an empty
	// trace: it is born done and its exception delivers at activation.
	for _, w := range b.warps {
		if w.done && w.excep != nil {
			s.deliverExcep(w)
		}
	}
	if b.liveWarps == 0 && !b.excepted {
		s.blockFinished(b)
	}
}

// newBlock returns an activation record with n warp records: the last
// one a finished block freed, or a new one. The caller resets every
// field but ref in place; the records keep their replay lists' arrays
// and their held-source maps, which are empty.
func (s *SM) newBlock(n int) *blockRT {
	ref, b := s.blocks.Get()
	b.ref = ref
	ws := b.warps[:cap(b.warps)]
	for len(ws) < n {
		ws = append(ws, new(warpRT))
	}
	b.warps = ws[:n]
	return b
}

// deliverExcep posts a drained warp's pending exception record to the
// host exception board. Precise delivery stops there: the offending
// warp is dead (its truncated trace — outstanding replays included —
// has fully drained and committed, so every older instruction's
// effects are architecturally visible) and the rest of the machine
// runs on until the host polls the exception flag. Preemptible
// delivery additionally squashes the offending block through the
// block-switch path: the block drains, saves its context off-chip via
// the paper's SM-state save machinery, and is never restored.
func (s *SM) deliverExcep(w *warpRT) {
	if w.excep == nil || w.excepDone {
		return
	}
	w.excepDone = true
	s.stats.Exceptions++
	if s.tr != nil {
		s.tr.Emit(s.ID, obs.KExcep, s.warpID(w), uint64(w.excep.Kind), uint64(w.block.id))
	}
	if s.excep != nil {
		s.excep.PostExcep(s.q.Now(), w.excep)
	}
	if s.cfg.Excep.Mode != excep.ModePreemptible {
		return
	}
	b := w.block
	b.excepted = true
	if b.state != blockActive {
		// Already draining or off-chip (a fault-driven switch raced the
		// delivery); the excepted mark keeps it from ever restoring.
		return
	}
	b.state = blockDraining
	s.unblockBlock(b)
	b.switchOutStart = s.q.Now()
	s.stats.SwitchesOut++
	if s.tr != nil {
		s.tr.Emit(s.ID, obs.KSwitchOut, s.blockTID(b), uint64(b.id), 0)
	}
	s.afterDrainStep(b)
}

// newFlight takes a flight from the flight table and resets its
// per-use state. Slice capacities survive reuse, so the
// fetch/issue/memory path stops allocating once the table is warm. A
// flight is freed (s.flights.Free) only when no scheduled event names
// it: at commit (all translations and cache completions have fired by
// then), at the fetch-buffer flush in squashAndRaise (never issued, so
// nothing was scheduled) and in settle (a squashed flight's last
// callback has fired).
func (s *SM) newFlight(w *warpRT, d *decoded, pos emu.Pos, isReplay bool) *flight {
	slot, f := s.flights.Get()
	f.slot = slot
	f.w, f.d, f.pos, f.isReplay = w, d, pos, isReplay
	f.srcHeld = f.srcHeld[:0]
	f.reqs = f.reqs[:0]
	f.tlbRem, f.reqRem = 0, 0
	f.faulted, f.squashed, f.committed = false, false, false
	f.logHeld = 0
	f.wdOwner = false
	return f
}

// SetWakeHook installs the idle→awake notification used by the
// active-set scheduler in sim.Run; nil removes it.
func (s *SM) SetWakeHook(h func()) { s.onWake = h }

// wake marks the SM runnable; every event callback that changes SM
// state calls it.
func (s *SM) wake() {
	if s.idle {
		s.idle = false
		if s.onWake != nil {
			s.onWake()
		}
	}
}

// Idle reports whether the SM had nothing to do at its last tick and is
// waiting for an event.
func (s *SM) Idle() bool { return s.idle }

// Done reports whether the SM has no resident or off-chip work.
func (s *SM) Done() bool { return s.assigned == 0 }

// Tick advances the SM by one cycle. Issue runs before fetch so a warp
// whose buffered instruction issues this cycle can refill its buffer in
// the same cycle (the instruction buffer is one entry deep), giving the
// back-to-back fetch/issue cadence of the paper's timing diagrams.
func (s *SM) Tick() {
	s.stats.Cycles++
	issued := s.doIssue()
	fetched := s.doFetch()
	if fetched || issued {
		s.stats.ActiveCycles++
	} else {
		s.idle = true
	}
}

// fetchWidth is how many warps may fetch per cycle (dual-ported
// instruction cache).
const fetchWidth = 2

func (s *SM) doFetch() bool {
	n := len(s.warps)
	if n == 0 {
		return false
	}
	budget := fetchWidth
	pos := s.lastFetch + 1
	if pos >= n {
		pos -= n
	}
	// The instruction buffer is one entry deep, so only unbuffered slots
	// can fetch: walk the fetchable slots among the clear bits of
	// bufMask (fetchable holds no bit at or above n).
	nW := len(s.bufMask)
	for k := 0; k <= nW; k++ {
		wIdx, win := wrapWindow(pos, nW, k)
		free := s.fetchable[wIdx] &^ s.bufMask[wIdx] & win
		for ; free != 0; free &= free - 1 {
			i := wIdx<<6 | bits.TrailingZeros64(free)
			w := s.warps[i]
			var pos emu.Pos
			var isReplay, ok bool
			if w != nil && w.fetchReady() {
				pos, isReplay, ok = w.nextFetch()
			}
			if !ok {
				s.fetchable[wIdx] &^= free & -free
				continue
			}
			d := &s.decode[w.trace.PC(pos)]
			f := s.newFlight(w, d, pos, isReplay)
			if isReplay {
				// Shift down rather than reslice, so the list keeps
				// its backing array; the list is short.
				w.replay = w.replay[:copy(w.replay, w.replay[1:])]
				s.stats.Replays++
			} else {
				w.pos = w.trace.Next(pos, d.global)
			}
			w.buf = f
			s.setBuf(i)
			w.bufReady = s.q.Now() + 1
			if d.control {
				w.fetchBlock = fetchControl
				w.fetchOwner = f
				w.fetchBlockStart = s.q.Now()
			} else if d.global &&
				(s.cfg.Scheme == config.WarpDisableCommit || s.cfg.Scheme == config.WarpDisableLastCheck) {
				w.fetchBlock = fetchWarpDisable
				w.fetchOwner = f
				f.wdOwner = true
				w.fetchBlockStart = s.q.Now()
			}
			s.lastFetch = i
			s.stats.Fetched++
			s.event("fetch", w, pos.Idx)
			if isReplay {
				s.trace(obs.KReplayFetch, w, pos.Idx)
			} else {
				s.trace(obs.KFetch, w, pos.Idx)
			}
			budget--
			if budget == 0 {
				return true
			}
		}
	}
	return budget < fetchWidth
}

// wrapWindow returns the word and the bit window of step k, for k in
// [0, nW], of a round-robin walk over an nW-word bitset that starts at
// bit pos: the starting word's bits at or above pos, the following
// words whole, and last the starting word's bits below pos. Walking
// the set bits of each window in ascending order visits them in the
// order of a slot-by-slot scan from pos.
func wrapWindow(pos, nW, k int) (int, uint64) {
	wIdx := pos>>6 + k
	if wIdx >= nW {
		wIdx -= nW
	}
	low := uint64(1)<<(uint(pos)&63) - 1
	switch k {
	case 0:
		return wIdx, ^low
	case nW:
		return wIdx, low
	}
	return wIdx, ^uint64(0)
}

func (s *SM) setBuf(i int) {
	s.bufMask[i>>6] |= 1 << (uint(i) & 63)
	s.clrBlocked(i)
}

func (s *SM) clrBuf(i int) {
	s.bufMask[i>>6] &^= 1 << (uint(i) & 63)
	s.clrBlocked(i)
}

// markFetchable sets a resident warp's fetchable bit: the fetch stage
// visits its slot again. An off-chip block has no slot; its restore
// marks its warps.
func (s *SM) markFetchable(w *warpRT) {
	if w.block.slot >= 0 {
		i := s.warpIndex(w)
		s.fetchable[i>>6] |= 1 << (uint(i) & 63)
	}
}

// numUnits sizes the per-unit tables of the issue stage.
const numUnits = int(isa.UnitNone) + 1

// setBlocked records that slot i's buffered instruction, bound for exec
// unit u, failed its scoreboard check.
func (s *SM) setBlocked(i int, u isa.Unit) {
	wd, b := i>>6, uint64(1)<<(uint(i)&63)
	s.blocked[wd] |= b
	s.blockedUnit[u][wd] |= b
}

// clrBlocked drops slot i from the blocked set, so the issue stage
// checks it afresh.
func (s *SM) clrBlocked(i int) {
	wd, b := i>>6, uint64(1)<<(uint(i)&63)
	if s.blocked[wd]&b == 0 {
		return
	}
	s.blocked[wd] &^= b
	for u := range s.blockedUnit {
		s.blockedUnit[u][wd] &^= b
	}
}

// unblockWarp drops a resident warp's slot from the blocked set. It runs
// on every event that could let the warp's buffered instruction pass
// its scoreboard check, or keep the issue stage from reaching that
// check: a scoreboard release, a fault raised on the warp, the warp
// finishing and its block leaving blockActive. (setBuf and clrBuf
// clear their slot themselves.) A call too many costs one re-check; a
// missing one would repeat a stale stall, which CheckInvariants
// catches. An off-chip block has no slot and nothing to clear.
func (s *SM) unblockWarp(w *warpRT) {
	if w.block.slot >= 0 {
		s.clrBlocked(s.warpIndex(w))
	}
}

// unblockBlock unblocks every warp of a block leaving blockActive.
func (s *SM) unblockBlock(b *blockRT) {
	for _, w := range b.warps {
		s.unblockWarp(w)
	}
}

// warpIndex returns a resident warp's slot in s.warps.
func (s *SM) warpIndex(w *warpRT) int { return w.block.slot*s.warpsPerBlock + w.idx }

// scoreboardReady runs the scoreboard check of w's buffered
// instruction f.
func (s *SM) scoreboardReady(w *warpRT, f *flight) bool {
	if !f.isReplay {
		return w.canIssue(f)
	}
	var heldOwn []isa.Reg
	if s.cfg.Scheme == config.ReplayQueue {
		heldOwn = w.heldSrcs[f.pos.Idx]
	}
	checkSources := s.cfg.Scheme != config.ReplayQueue && s.cfg.Scheme != config.OperandLog
	return w.canIssueReplay(f, heldOwn, checkSources)
}

func (s *SM) doIssue() bool {
	if len(s.warps) == 0 {
		return false
	}
	var any uint64
	for _, wd := range s.bufMask {
		any |= wd
	}
	if any == 0 {
		return false
	}
	budget := s.cfg.SM.IssueWidth
	warpsLeft := s.cfg.SM.IssueWarps
	unitBudget := s.ports
	n := len(s.warps)
	// Loose round-robin starts after the last issuing warp; the greedy
	// policy starts at it, so a warp keeps issuing until it stalls.
	first := 1
	if s.cfg.SM.GreedyIssue {
		first = 0
	}
	issuedAny := false
	pos := s.lastIssue + first
	if pos >= n {
		pos -= n
	}
	now := s.q.Now()
	// Walk the buffered slots in round-robin order from pos. Blocked
	// slots are passed, not visited: up to where the walk stops, they
	// stall as a visit would have (passBlocked). The others, the
	// candidates, are checked one by one. A tracer records each stall in
	// slot order and a chaos plan must see its StallIssue calls in visit
	// order, so with either attached every buffered slot is a candidate.
	bulk := s.chaos == nil && !s.tr.Enabled(obs.KStall)
	nW := len(s.bufMask)
	for k := 0; k <= nW; k++ {
		wIdx, win := wrapWindow(pos, nW, k)
		var blk uint64
		if bulk {
			blk = s.blocked[wIdx] & win
		}
		cand := s.bufMask[wIdx] & win &^ blk
		for {
			if budget <= 0 || warpsLeft <= 0 {
				return issuedAny
			}
			// The blocked slots before the next candidate, or all that
			// are left when there is none.
			next := cand & -cand
			if passed := blk & (next - 1); passed != 0 {
				s.passBlocked(wIdx, passed, &unitBudget)
				blk &^= passed
			}
			if next == 0 {
				break
			}
			cand &^= next
			i := wIdx<<6 | bits.TrailingZeros64(next)
			w := s.warps[i]
			if w == nil || w.done || w.buf == nil || w.bufReady > now ||
				w.block.state != blockActive || w.faultsOutstanding > 0 {
				continue
			}
			f := w.buf
			if unitBudget[f.d.unit] <= 0 {
				s.stall(w, f, obs.StallPort)
				continue
			}
			if s.chaos != nil && f.d.global && s.chaos.StallIssue(s.ID, f.isReplay) {
				// The stall counts as activity so the SM retries next cycle
				// instead of sleeping for an event that may never come.
				s.stats.IssueStallChaos++
				s.stall(w, f, obs.StallChaos)
				issuedAny = true
				continue
			}
			if !s.scoreboardReady(w, f) {
				s.stats.IssueStallScore++
				s.stall(w, f, obs.StallScoreboard)
				s.setBlocked(i, f.d.unit)
				continue
			}
			// Operand log capacity: loads/atomics hold one entry, stores
			// two (address and data); allocation happens at issue
			// (Section 3.3). Entries of squashed instructions stay held
			// until their replay passes its TLB checks, so a replayed
			// instruction does not allocate again.
			logNeed := 0
			if s.cfg.Scheme == config.OperandLog && f.d.global {
				logNeed = int(f.d.logNeed)
				if !f.isReplay {
					if w.block.logUsed+logNeed > s.logPerBlock {
						s.stats.IssueStallLog++
						s.stall(w, f, obs.StallLogFull)
						continue
					}
					w.block.logUsed += logNeed
					s.met.LogOcc.Observe(int64(w.block.logUsed))
				}
				f.logHeld = logNeed
			}
			// Issue: mark the scoreboard. A replayed instruction under the
			// replay-queue scheme inherits the source holds it kept across
			// the fault; under the operand-log scheme it reads from the log
			// and takes no source holds at all.
			if f.isReplay {
				if f.d.writes() {
					w.setWritePending(f.d.dst)
				}
				switch s.cfg.Scheme {
				case config.ReplayQueue:
					if held, ok := w.heldSrcs[f.pos.Idx]; ok {
						s.spareRegs = append(s.spareRegs, f.srcHeld[:0])
						f.srcHeld = held
						delete(w.heldSrcs, f.pos.Idx)
					}
				case config.OperandLog:
					// No register file reads on replay.
				default:
					w.acquireSources(f)
				}
			} else {
				w.acquire(f)
			}
			w.inFlight++
			w.buf = nil
			s.clrBuf(i)
			s.stats.Issued++
			s.event("issue", w, f.pos.Idx)
			s.trace(obs.KIssue, w, f.pos.Idx)
			s.q.After(1, s.ev.opRead, f.slot)
			budget--
			unitBudget[f.d.unit]--
			warpsLeft--
			s.lastIssue = i
			issuedAny = true
		}
	}
	return issuedAny
}

// passBlocked accounts the blocked slots of word wIdx selected by m,
// which the issue walk passes over. Each stalls exactly as a visit
// would have: on its port when its unit's budget is spent, otherwise on
// its scoreboard.
func (s *SM) passBlocked(wIdx int, m uint64, unitBudget *[numUnits]int) {
	total := int64(bits.OnesCount64(m))
	var port int64
	for u, left := range unitBudget {
		if left <= 0 {
			port += int64(bits.OnesCount64(s.blockedUnit[u][wIdx] & m))
		}
	}
	s.stats.Stalls[obs.StallPort] += port
	s.stats.Stalls[obs.StallScoreboard] += total - port
	s.stats.IssueStallScore += total - port
}

func (s *SM) evOpRead(slot int64) {
	s.wake()
	s.opRead(s.flights.At(slot))
}

func (s *SM) evCommit(slot int64) {
	s.wake()
	s.commit(s.flights.At(slot))
}

// opRead is the operand read stage, one cycle after issue. Source
// scoreboards are released here in the baseline, warp-disable and
// operand-log schemes; the replay-queue scheme defers the release of
// global memory sources to the last TLB check (Section 3.2).
func (s *SM) opRead(f *flight) {
	w := f.w
	d := f.d
	if !(s.cfg.Scheme == config.ReplayQueue && d.global) {
		w.releaseSources(f)
	}
	switch {
	case d.barrier:
		s.arriveBarrier(f)
	case d.global:
		s.startMem(f)
	default:
		s.q.After(int64(d.latency), s.ev.commit, f.slot)
	}
}

// arriveBarrier handles a warp reaching bar.sync: the warp stalls until
// every live warp of its block has arrived, then all their barrier
// instructions commit together.
func (s *SM) arriveBarrier(f *flight) {
	w := f.w
	b := w.block
	w.atBarrier = true
	w.barFlight = f
	w.barStart = s.q.Now()
	b.barrierCount++
	if b.barrierCount >= b.liveWarps {
		s.releaseBarrier(b)
	}
}

// releaseBarrier frees every warp parked at the block's barrier,
// attributing the waited cycles, and commits their barrier
// instructions together.
func (s *SM) releaseBarrier(b *blockRT) {
	b.barrierCount = 0
	for _, bw := range b.warps {
		if bw.atBarrier {
			bw.atBarrier = false
			s.markFetchable(bw)
			s.stats.Stalls[obs.StallBarrier] += s.q.Now() - bw.barStart
			bf := bw.barFlight
			bw.barFlight = nil
			s.q.After(1, s.ev.commit, bf.slot)
		}
	}
}

// clearFetchBlock re-enables a warp's fetch, attributing the blocked
// interval to the control-flow or warp-disable stall bucket.
func (s *SM) clearFetchBlock(w *warpRT) {
	switch w.fetchBlock {
	case fetchControl:
		s.stats.Stalls[obs.StallFetchCtl] += s.q.Now() - w.fetchBlockStart
	case fetchWarpDisable:
		s.stats.Stalls[obs.StallFetchWD] += s.q.Now() - w.fetchBlockStart
	case fetchOK:
		// Nothing was blocked; no stall interval to attribute.
	}
	w.fetchBlock = fetchOK
	w.fetchOwner = nil
	s.markFetchable(w)
}

// commit retires an instruction: scoreboard release, fetch unblocking,
// warp/block completion checks, and drain progress for block switching.
func (s *SM) commit(f *flight) {
	if f.committed || f.squashed {
		return
	}
	f.committed = true
	w := f.w
	s.event("commit", w, f.pos.Idx)
	if f.isReplay {
		s.trace(obs.KReplayCommit, w, f.pos.Idx)
	} else {
		s.trace(obs.KCommit, w, f.pos.Idx)
	}
	w.releaseDest(f)
	// Replay-queue holds sources until last TLB check; a non-memory
	// path never reaches here with holds, but guard for squash races.
	w.releaseSources(f)
	w.inFlight--
	s.stats.Committed++
	if f.d.global {
		s.stats.GlobalMemInsts++
	}
	if w.fetchOwner == f {
		s.clearFetchBlock(w)
	}
	s.afterDrainStep(w.block)
	s.checkWarpDone(w)
	s.flights.Free(f.slot, f)
}

// checkWarpDone marks the warp done when its trace is exhausted, and
// completes the block when all warps are done.
func (s *SM) checkWarpDone(w *warpRT) {
	if w.done || !w.exhausted() || w.faultsOutstanding > 0 {
		return
	}
	w.done = true
	s.unblockWarp(w)
	b := w.block
	if w.excep != nil {
		s.deliverExcep(w)
	}
	b.liveWarps--
	if b.excepted {
		// The block is being squashed: it never finishes, and warps
		// parked at its barriers stay parked (barrier unit state is
		// saved as part of the context).
		return
	}
	// A warp that exits while others wait at a barrier can release it.
	if b.liveWarps > 0 && b.barrierCount >= b.liveWarps {
		s.releaseBarrier(b)
	}
	if b.liveWarps == 0 {
		s.blockFinished(b)
	}
}

// blockFinished releases the block's slot, hands its trace back and
// pulls in the next work.
func (s *SM) blockFinished(b *blockRT) {
	slot := b.slot
	s.slots[slot] = nil
	for i := 0; i < s.warpsPerBlock; i++ {
		s.warps[slot*s.warpsPerBlock+i] = nil
		s.clrBuf(slot*s.warpsPerBlock + i)
	}
	s.assigned--
	bt := b.trace
	b.trace = nil
	for _, w := range b.warps {
		w.trace = nil
		w.excep = nil
	}
	s.handBack(bt)
	// Nothing names the block or its warps any more: a squashed
	// flight still waiting on events reads only its own flags.
	s.blocks.Free(b.ref, b)
	s.refillSlot(slot)
	s.wake()
}

// handBack returns a finished block's trace to the source, which may
// recycle it for the next block at once.
//
//simlint:releases 0
func (s *SM) handBack(bt *emu.BlockTrace) { s.src.BlockDone(s.ID, bt) }

// refillSlot chooses what to run in a freed slot: a ready off-chip
// block first (restore), otherwise a fresh pending block.
func (s *SM) refillSlot(slot int) {
	if s.restoreReadyBlock(slot) {
		return
	}
	s.startBlock(slot)
}
