// Package tlb models the GPU's address translation hardware (Table 1):
// a small private L1 TLB per SM, a large shared L2 TLB with MSHRs, and
// the fill unit whose page table walkers resolve L2 misses at a fixed
// walk latency. Walkers are the point where page faults are detected
// (Figure 2, step 1).
package tlb

import (
	"fmt"
	"math/bits"
	"sort"

	"gpues/internal/clock"
	"gpues/internal/obs"
	"gpues/internal/vm"
)

// Result is the outcome of a translation: either the page is present in
// the GPU page table, or the access faults with the given kind.
type Result struct {
	Present bool
	Fault   vm.FaultKind
}

// Handler receives a translation result for the request its payload
// names. A client builds it once and registers it with Level.Attach.
type Handler func(arg int64, r Result)

// Level is anything that can translate a page: an underlying TLB level
// or the fill unit. A request waiting on it is a waiter, one int64 (see
// clock.Clients): the tag Attach gave its client ORed with the client's
// payload, in [0, 2^48).
type Level interface {
	// Attach registers a client's result handler and returns the
	// client's tag.
	Attach(done Handler) int64
	// Lookup translates the page containing pageVA; the handler of the
	// waiter's client receives the result with the waiter's payload. A
	// false return means the level is full (MSHR/queue backpressure)
	// and the caller must retry.
	Lookup(pageVA uint64, waiter int64) bool
}

// Stats counts TLB events.
type Stats struct {
	Hits    int64
	Misses  int64
	Merges  int64
	Rejects int64
	Faults  int64 // fault results delivered
}

// Config sizes a TLB level.
type Config struct {
	Name    string
	Entries int
	Ways    int
	MSHRs   int // 0 means unbounded (L1 TLB misses are bounded by the LSU)
	Latency int64
}

// tlbMSHR tracks one outstanding translation miss. Like cache MSHRs,
// they are records of the TLB's MSHR table, whose index is the payload
// of their issue and fill events; waiters capacity survives reuse so
// steady-state misses do not allocate.
type tlbMSHR struct {
	pageVA  uint64
	vpn     uint64
	waiters []int64
	born    int64 // cycle the miss was allocated (leak detection)
	id      int64 // index in TLB.mshrTab
}

// delivery carries one hit result through the latency delay, parked in
// the TLB's delivery table so the hit path — the common case on the L1
// TLB, once per coalesced request — schedules without allocating.
type delivery struct {
	waiter int64
	r      Result
}

// TLB is one translation level backed by a lower Level.
//
// The entry array is flat and set-major: way w of set s is entry
// s*Ways+w of keys and lru. A key is the page number plus one, and 0
// marks an invalid way, so a lookup compares one word per way. An
// invalid way's lru is zero.
type TLB struct {
	cfg  Config
	keys []uint64
	lru  []int64
	//simlint:ckptskip construction-time geometry derived from cfg, which the config fingerprint covers
	pageShift uint8 // log2 of the page size: a page's number is va >> pageShift
	//simlint:ckptskip construction-time geometry derived from cfg, which the config fingerprint covers
	setMask uint64 // sets-1: the set of page number n is n&setMask
	//simlint:ckptskip wiring to the shared event queue, which checkpoints itself as the clock section
	q *clock.Queue
	//simlint:ckptskip wiring to the lower level, which checkpoints itself as its own section
	next Level
	//simlint:ckptskip this TLB's client tag at next, fixed at construction
	nextTag int64
	//simlint:ckptskip handlers of the levels above, registered once at construction
	clients clock.Clients[Handler]
	mshrs   map[uint64]*tlbMSHR
	//simlint:ckptskip every MSHR ever built, by id: the payload index of its events; mshrs names the live ones
	mshrTab clock.Table[tlbMSHR]
	//simlint:ckptskip hit results in flight; the clock digests their events and replay rebuilds them
	deliveries clock.Table[delivery]
	//simlint:ckptskip handler built once at construction
	deliverFn clock.Handler // runs deliveries[arg]
	//simlint:ckptskip handler built once at construction
	issueFn clock.Handler // issue(mshrTab.At(arg)); also the downstream-full retry
	stats   Stats
	tick    int64
	//simlint:ckptskip retry events; SaveState digests the count and replay rebuilds the population
	waiters clock.FIFO[clock.Event]
}

// sendResult delivers r to waiter after the TLB latency, parking the
// pair in the delivery table. The entry is freed before the waiter's
// handler runs, so re-entrant lookups from inside it reuse it.
func (t *TLB) sendResult(waiter int64, r Result) {
	t.q.After(t.cfg.Latency, t.deliverFn, t.deliveries.Put(delivery{waiter: waiter, r: r}))
}

func (t *TLB) onDeliver(arg int64) {
	d := t.deliveries.Take(arg)
	t.answer(d.waiter, d.r)
}

// answer runs the handler of waiter's client with its payload.
func (t *TLB) answer(waiter int64, r Result) {
	fn, arg := t.clients.Get(waiter)
	fn(arg, r)
}

// Attach implements Level.
func (t *TLB) Attach(done Handler) int64 { return t.clients.Add(done) }

// freeNotifier is implemented by levels that can call back when miss
// resources free up.
type freeNotifier interface{ OnFree(clock.Event) }

// OnFree registers e to run when a TLB MSHR is released; rejected
// callers use this instead of polling.
func (t *TLB) OnFree(e clock.Event) { t.waiters.Push(e) }

func (t *TLB) release() {
	for t.waiters.Len() > 0 && (t.cfg.MSHRs == 0 || len(t.mshrs) < t.cfg.MSHRs) {
		t.waiters.Pop().Fire()
	}
}

// New builds a TLB with the given geometry over the next level.
func New(cfg Config, pageSize int, q *clock.Queue, next Level) (*TLB, error) {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		return nil, fmt.Errorf("tlb %s: bad geometry %d entries / %d ways", cfg.Name, cfg.Entries, cfg.Ways)
	}
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("tlb %s: page size %d", cfg.Name, pageSize)
	}
	// The set index is a mask of the page number, so the set count must
	// be a power of two.
	sets := cfg.Entries / cfg.Ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("tlb %s: %d entries in %d ways is not a power-of-two number of sets",
			cfg.Name, cfg.Entries, cfg.Ways)
	}
	t := &TLB{
		cfg:       cfg,
		keys:      make([]uint64, cfg.Entries),
		lru:       make([]int64, cfg.Entries),
		pageShift: uint8(bits.TrailingZeros(uint(pageSize))),
		setMask:   uint64(sets - 1),
		q:         q,
		next:      next,
		mshrs:     make(map[uint64]*tlbMSHR),
	}
	t.deliverFn = t.onDeliver
	t.issueFn = t.onIssue
	t.nextTag = next.Attach(t.onFill)
	return t, nil
}

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// RegisterMetrics exposes the TLB's counters as gauges.
func (t *TLB) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix+".hits", func() int64 { return t.stats.Hits })
	reg.Gauge(prefix+".misses", func() int64 { return t.stats.Misses })
	reg.Gauge(prefix+".merges", func() int64 { return t.stats.Merges })
	reg.Gauge(prefix+".rejects", func() int64 { return t.stats.Rejects })
	reg.Gauge(prefix+".faults", func() int64 { return t.stats.Faults })
}

// InFlight returns the number of outstanding misses.
func (t *TLB) InFlight() int { return len(t.mshrs) }

func (t *TLB) vpn(va uint64) uint64 { return va >> t.pageShift }

// set returns the first entry index of the set holding page number
// vpn.
func (t *TLB) set(vpn uint64) int { return int(vpn&t.setMask) * t.cfg.Ways }

// find returns the entry index holding vpn, or -1.
func (t *TLB) find(vpn uint64) int {
	base := t.set(vpn)
	for w, k := range t.keys[base : base+t.cfg.Ways] {
		if k == vpn+1 {
			return base + w
		}
	}
	return -1
}

// install places vpn in its set, evicting the victim: the first
// invalid way, else the way with the strictly lowest LRU stamp, way 0
// first.
func (t *TLB) install(vpn uint64) {
	base := t.set(vpn)
	v := base
	for i := base; i < base+t.cfg.Ways; i++ {
		if t.keys[i] == 0 {
			v = i
			break
		}
		if t.lru[i] < t.lru[v] {
			v = i
		}
	}
	t.tick++
	t.keys[v], t.lru[v] = vpn+1, t.tick
}

// Lookup implements Level.
//
//simlint:noalloc
func (t *TLB) Lookup(pageVA uint64, waiter int64) bool {
	vpn := t.vpn(pageVA)
	if i := t.find(vpn); i >= 0 {
		t.stats.Hits++
		t.tick++
		t.lru[i] = t.tick
		t.sendResult(waiter, Result{Present: true})
		return true
	}
	if m, ok := t.mshrs[vpn]; ok {
		t.stats.Merges++
		m.waiters = append(m.waiters, waiter)
		return true
	}
	if t.cfg.MSHRs > 0 && len(t.mshrs) >= t.cfg.MSHRs {
		t.stats.Rejects++
		return false
	}
	t.stats.Misses++
	id, m := t.mshrTab.Get()
	*m = tlbMSHR{pageVA: pageVA, vpn: vpn, waiters: append(m.waiters[:0], waiter), born: t.q.Now(), id: id}
	t.mshrs[vpn] = m
	t.q.After(t.cfg.Latency, t.issueFn, m.id)
	return true
}

func (t *TLB) onIssue(id int64) { t.issue(t.mshrTab.At(id)) }

func (t *TLB) onFill(id int64, r Result) { t.fill(t.mshrTab.At(id), r) }

func (t *TLB) issue(m *tlbMSHR) {
	if !t.next.Lookup(m.pageVA, t.nextTag|m.id) {
		if fn, okN := t.next.(freeNotifier); okN {
			fn.OnFree(clock.Event{Fn: t.issueFn, Arg: m.id})
		} else {
			t.q.After(1, t.issueFn, m.id)
		}
	}
}

// fill completes a miss: install on a hit, retire the tracker, run the
// merged waiters in arrival order, then free it (last, so waiters that
// immediately re-miss get a different record).
func (t *TLB) fill(m *tlbMSHR, r Result) {
	if r.Present {
		t.install(m.vpn)
	} else {
		t.stats.Faults++
	}
	delete(t.mshrs, m.vpn)
	for _, w := range m.waiters {
		t.answer(w, r)
	}
	t.release()
	t.mshrTab.Free(m.id, m)
}

// CheckInvariants validates the TLB's structural state: MSHR occupancy
// within capacity, and (when maxAge > 0) no outstanding miss older than
// maxAge cycles — a stuck MSHR is a leaked miss that would otherwise
// only surface as a hang.
func (t *TLB) CheckInvariants(now, maxAge int64) []string {
	var v []string
	if t.cfg.MSHRs > 0 && len(t.mshrs) > t.cfg.MSHRs {
		v = append(v, fmt.Sprintf("%s: %d MSHRs in flight exceed capacity %d",
			t.cfg.Name, len(t.mshrs), t.cfg.MSHRs))
	}
	if maxAge > 0 {
		// Sorted VPNs keep the violation report deterministic run to
		// run (map iteration order is randomised).
		vpns := make([]uint64, 0, len(t.mshrs))
		for vpn := range t.mshrs {
			vpns = append(vpns, vpn)
		}
		sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
		for _, vpn := range vpns {
			if age := now - t.mshrs[vpn].born; age > maxAge {
				v = append(v, fmt.Sprintf("%s: miss on vpn %#x outstanding for %d cycles (leak?)",
					t.cfg.Name, vpn, age))
			}
		}
	}
	return v
}

// Flush invalidates all entries (kernel boundary).
func (t *TLB) Flush() {
	clear(t.keys)
	clear(t.lru)
}

// WalkInjector is the chaos hook of the fill unit: it may turn a
// page-table walk that would hit into a transient alloc-only fault.
// Resolving such a fault is architecturally a no-op (the page is
// already mapped), so a correct pipeline replays to the same result —
// the restartability property the injection exists to stress.
type WalkInjector interface {
	InjectWalkFault(pageVA uint64) bool
}

// FillUnit performs GPU page table walks on L2 TLB misses with a pool
// of hardware walkers (Table 1: 64 walkers, 500-cycle walks). The
// classify callback consults the GPU page table; non-present results
// are page faults reported upward.
type FillUnit struct {
	//simlint:ckptskip wiring to the shared event queue, which checkpoints itself as the clock section
	q *clock.Queue
	//simlint:ckptskip construction-time capacity (Table 1: 64 walkers), fixed for the life of the unit
	walkers int
	//simlint:ckptskip construction-time latency (Table 1: 500-cycle walks), fixed for the life of the unit
	walkLatency int64
	busy        int
	queue       clock.FIFO[walkReq]
	//simlint:ckptskip walks in progress; the clock digests their events and replay rebuilds them
	walks clock.Table[walkReq]
	//simlint:ckptskip handler built once at construction
	walkFn clock.Handler // finishes walks[arg]
	//simlint:ckptskip handlers of the levels above, registered once at construction
	clients clock.Clients[Handler]
	//simlint:ckptskip page-table-probe closure over the address space, which checkpoints itself as the vm section
	classify func(pageVA uint64) Result
	//simlint:ckptskip chaos hook, fixed when the plan is attached; the plan checkpoints its progress as the chaos section
	injector WalkInjector
	//simlint:ckptskip tracer wiring; trace emission is observability, not simulation state
	tr *obs.Tracer

	// Walks and FaultsDetected count completed walks and those that
	// ended in a fault; FaultsInjected counts the detected faults that
	// were injected rather than organic.
	Walks          int64
	FaultsDetected int64
	FaultsInjected int64
}

type walkReq struct {
	pageVA uint64
	waiter int64
}

// NewFillUnit builds the fill unit. classify must return the current
// page table state for a page.
func NewFillUnit(q *clock.Queue, walkers int, walkLatency int64, classify func(uint64) Result) (*FillUnit, error) {
	if walkers <= 0 || walkLatency <= 0 || classify == nil {
		return nil, fmt.Errorf("tlb: bad fill unit config (%d walkers, %d latency)", walkers, walkLatency)
	}
	f := &FillUnit{q: q, walkers: walkers, walkLatency: walkLatency, classify: classify}
	f.walkFn = f.onWalk
	return f, nil
}

// Attach implements Level.
func (f *FillUnit) Attach(done Handler) int64 { return f.clients.Add(done) }

// Lookup implements Level: it starts a page walk, queueing when all
// walkers are busy.
func (f *FillUnit) Lookup(pageVA uint64, waiter int64) bool {
	if f.busy < f.walkers {
		f.startWalk(pageVA, waiter)
	} else {
		f.queue.Push(walkReq{pageVA: pageVA, waiter: waiter})
	}
	return true
}

// Busy returns the number of active walkers.
func (f *FillUnit) Busy() int { return f.busy }

// Queued returns the number of walks waiting for a walker.
func (f *FillUnit) Queued() int { return f.queue.Len() }

// SetInjector installs the chaos hook; nil removes it.
func (f *FillUnit) SetInjector(i WalkInjector) { f.injector = i }

// SetTracer installs the event tracer; nil disables tracing.
func (f *FillUnit) SetTracer(tr *obs.Tracer) { f.tr = tr }

// RegisterMetrics exposes the fill unit's counters as gauges.
func (f *FillUnit) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix+".walks", func() int64 { return f.Walks })
	reg.Gauge(prefix+".faults_detected", func() int64 { return f.FaultsDetected })
	reg.Gauge(prefix+".faults_injected", func() int64 { return f.FaultsInjected })
}

// CheckInvariants validates the fill unit's structural state.
func (f *FillUnit) CheckInvariants() []string {
	if f.busy < 0 || f.busy > f.walkers {
		return []string{fmt.Sprintf("fill unit: %d busy walkers outside [0,%d]", f.busy, f.walkers)}
	}
	return nil
}

// startWalk occupies a walker for the walk latency, parking the request
// in the walk table.
//
//simlint:noalloc
func (f *FillUnit) startWalk(pageVA uint64, waiter int64) {
	f.busy++
	f.q.After(f.walkLatency, f.walkFn, f.walks.Put(walkReq{pageVA: pageVA, waiter: waiter}))
}

// onWalk finishes a walk: it classifies the page, hands the freed
// walker to the oldest queued request, then delivers the result.
func (f *FillUnit) onWalk(arg int64) {
	req := f.walks.Take(arg)
	pageVA := req.pageVA
	f.busy--
	f.Walks++
	r := f.classify(pageVA)
	if r.Present && f.injector != nil && f.injector.InjectWalkFault(pageVA) {
		r = Result{Fault: vm.FaultAllocOnly}
		f.FaultsInjected++
	}
	if !r.Present {
		f.FaultsDetected++
		if f.tr != nil {
			f.tr.Emit(-1, obs.KWalkFault, -1, pageVA, uint64(r.Fault))
		}
	}
	if f.queue.Len() > 0 {
		next := f.queue.Pop()
		f.startWalk(next.pageVA, next.waiter)
	}
	fn, arg := f.clients.Get(req.waiter)
	fn(arg, r)
}
