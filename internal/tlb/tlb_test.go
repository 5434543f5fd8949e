package tlb

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"gpues/internal/ckpt"
	"gpues/internal/clock"
	"gpues/internal/vm"
)

func drain(q *clock.Queue, max int64) {
	for i := int64(0); i < max && q.Len() > 0; i++ {
		q.Step()
	}
}

// presentSet is a Level answering from a fixed set of present pages.
type presentSet struct {
	q       *clock.Queue
	latency int64
	present map[uint64]bool
	lookups int
	clients clock.Clients[Handler]
}

func (p *presentSet) Attach(done Handler) int64 { return p.clients.Add(done) }

func (p *presentSet) Lookup(pageVA uint64, waiter int64) bool {
	p.lookups++
	ok := p.present[pageVA&^4095]
	p.q.After(p.latency, func(int64) {
		fn, arg := p.clients.Get(waiter)
		if ok {
			fn(arg, Result{Present: true})
		} else {
			fn(arg, Result{Fault: vm.FaultMigrate})
		}
	}, 0)
	return true
}

// wait registers a test callback as a client of l and returns the
// waiter that delivers to it.
func wait(l Level, fn func(Result)) int64 { return l.Attach(func(_ int64, r Result) { fn(r) }) }

func l1Cfg() Config {
	return Config{Name: "l1tlb", Entries: 32, Ways: 8, Latency: 1}
}

func TestTLBMissFillHit(t *testing.T) {
	q := clock.New()
	next := &presentSet{q: q, latency: 70, present: map[uint64]bool{0x10000: true}}
	tl, err := New(l1Cfg(), 4096, q, next)
	if err != nil {
		t.Fatal(err)
	}
	var r1, r2 Result
	var t1, t2 int64
	tl.Lookup(0x10008, wait(tl, func(r Result) { r1, t1 = r, q.Now() }))
	drain(q, 1000)
	if !r1.Present || t1 < 71 {
		t.Errorf("miss result %+v at %d", r1, t1)
	}
	start := q.Now()
	tl.Lookup(0x10100, wait(tl, func(r Result) { r2, t2 = r, q.Now() })) // same page
	drain(q, 1000)
	if !r2.Present || t2-start != 1 {
		t.Errorf("hit result %+v latency %d, want 1", r2, t2-start)
	}
	s := tl.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if next.lookups != 1 {
		t.Errorf("next lookups = %d, want 1", next.lookups)
	}
}

func TestTLBFaultNotCached(t *testing.T) {
	q := clock.New()
	next := &presentSet{q: q, latency: 10, present: map[uint64]bool{}}
	tl, _ := New(l1Cfg(), 4096, q, next)
	var r Result
	tl.Lookup(0x20000, wait(tl, func(res Result) { r = res }))
	drain(q, 100)
	if r.Present || r.Fault != vm.FaultMigrate {
		t.Errorf("fault result = %+v", r)
	}
	if tl.Stats().Faults != 1 {
		t.Errorf("faults = %d", tl.Stats().Faults)
	}
	// The page becomes present (fault resolved); the next lookup must go
	// to the backend again, not be served from a stale cached fault.
	next.present[0x20000] = true
	tl.Lookup(0x20000, wait(tl, func(res Result) { r = res }))
	drain(q, 100)
	if !r.Present {
		t.Error("lookup after resolution must be present")
	}
	if next.lookups != 2 {
		t.Errorf("backend lookups = %d, want 2 (faults are not cached)", next.lookups)
	}
}

func TestTLBMSHRMergeAndBackpressure(t *testing.T) {
	q := clock.New()
	next := &presentSet{q: q, latency: 100, present: map[uint64]bool{0x0: true, 0x1000: true, 0x2000: true}}
	cfg := l1Cfg()
	cfg.MSHRs = 2
	tl, _ := New(cfg, 4096, q, next)
	n := 0
	tl.Lookup(0x0, wait(tl, func(Result) { n++ }))
	tl.Lookup(0x8, wait(tl, func(Result) { n++ })) // merges with first
	tl.Lookup(0x1000, wait(tl, func(Result) { n++ }))
	if tl.Lookup(0x2000, wait(tl, func(Result) { n++ })) {
		t.Error("third distinct page must be rejected with 2 MSHRs")
	}
	if tl.InFlight() != 2 {
		t.Errorf("in flight = %d", tl.InFlight())
	}
	drain(q, 1000)
	if n != 3 {
		t.Errorf("completions = %d, want 3", n)
	}
	s := tl.Stats()
	if s.Merges != 1 || s.Rejects != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestTLBLRUReplacement(t *testing.T) {
	q := clock.New()
	present := map[uint64]bool{}
	for i := uint64(0); i < 100; i++ {
		present[i*4096] = true
	}
	next := &presentSet{q: q, latency: 1, present: present}
	cfg := Config{Name: "tiny", Entries: 2, Ways: 2, Latency: 1}
	tl, _ := New(cfg, 4096, q, next)
	for _, p := range []uint64{0, 4096, 8192} {
		tl.Lookup(p, wait(tl, func(Result) {}))
		drain(q, 100)
	}
	missesBefore := tl.Stats().Misses
	tl.Lookup(0, wait(tl, func(Result) {})) // was LRU, evicted
	drain(q, 100)
	if tl.Stats().Misses != missesBefore+1 {
		t.Error("LRU entry not evicted")
	}
}

func TestTLBFlush(t *testing.T) {
	q := clock.New()
	next := &presentSet{q: q, latency: 1, present: map[uint64]bool{0: true}}
	tl, _ := New(l1Cfg(), 4096, q, next)
	tl.Lookup(0, wait(tl, func(Result) {}))
	drain(q, 100)
	tl.Flush()
	tl.Lookup(0, wait(tl, func(Result) {}))
	drain(q, 100)
	if tl.Stats().Misses != 2 {
		t.Errorf("misses after flush = %d, want 2", tl.Stats().Misses)
	}
}

func TestTLBConfigValidation(t *testing.T) {
	q := clock.New()
	if _, err := New(Config{Entries: 0, Ways: 1}, 4096, q, nil); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := New(Config{Entries: 10, Ways: 3}, 4096, q, nil); err == nil {
		t.Error("non-divisible ways accepted")
	}
	if _, err := New(Config{Entries: 8, Ways: 2}, 1000, q, nil); err == nil {
		t.Error("bad page size accepted")
	}
}

func TestFillUnitWalkAndFault(t *testing.T) {
	q := clock.New()
	pt, _ := vm.NewPageTable(4096)
	pt.Set(0x5000, vm.PTE{State: vm.PageGPU, PA: 0x100000})
	fu, err := NewFillUnit(q, 2, 500, func(va uint64) Result {
		e := pt.Lookup(va)
		if e.Present() {
			return Result{Present: true}
		}
		return Result{Fault: vm.FaultAllocOnly}
	})
	if err != nil {
		t.Fatal(err)
	}
	var rPresent, rFault Result
	var tDone int64
	fu.Lookup(0x5000, wait(fu, func(r Result) { rPresent, tDone = r, q.Now() }))
	fu.Lookup(0x9000, wait(fu, func(r Result) { rFault = r }))
	drain(q, 2000)
	if !rPresent.Present || tDone != 500 {
		t.Errorf("walk result %+v at %d, want present at 500", rPresent, tDone)
	}
	if rFault.Present || rFault.Fault != vm.FaultAllocOnly {
		t.Errorf("fault result = %+v", rFault)
	}
	if fu.Walks != 2 || fu.FaultsDetected != 1 {
		t.Errorf("walks=%d faults=%d", fu.Walks, fu.FaultsDetected)
	}
}

func TestFillUnitWalkerPoolQueueing(t *testing.T) {
	q := clock.New()
	fu, _ := NewFillUnit(q, 2, 100, func(va uint64) Result { return Result{Present: true} })
	var times []int64
	for i := 0; i < 4; i++ {
		fu.Lookup(uint64(i*4096), wait(fu, func(Result) { times = append(times, q.Now()) }))
	}
	if fu.Busy() != 2 || fu.Queued() != 2 {
		t.Errorf("busy=%d queued=%d, want 2/2", fu.Busy(), fu.Queued())
	}
	drain(q, 2000)
	if len(times) != 4 {
		t.Fatalf("completions = %d", len(times))
	}
	// First two finish at 100, next two at 200.
	if times[0] != 100 || times[1] != 100 || times[2] != 200 || times[3] != 200 {
		t.Errorf("completion times = %v, want [100 100 200 200]", times)
	}
}

func TestFillUnitValidation(t *testing.T) {
	q := clock.New()
	if _, err := NewFillUnit(q, 0, 100, func(uint64) Result { return Result{} }); err == nil {
		t.Error("zero walkers accepted")
	}
	if _, err := NewFillUnit(q, 1, 100, nil); err == nil {
		t.Error("nil classify accepted")
	}
}

// Chain test: L1 TLB -> L2 TLB -> fill unit, checking that a miss
// traverses all levels and installs in both TLBs.
func TestTwoLevelChain(t *testing.T) {
	q := clock.New()
	fu, _ := NewFillUnit(q, 64, 500, func(va uint64) Result { return Result{Present: true} })
	l2, _ := New(Config{Name: "l2tlb", Entries: 1024, Ways: 8, MSHRs: 128, Latency: 70}, 4096, q, fu)
	l1, _ := New(l1Cfg(), 4096, q, l2)

	var done int64
	l1.Lookup(0x7000, wait(l1, func(Result) { done = q.Now() }))
	drain(q, 5000)
	// 1 (L1) + 70 (L2) + 500 (walk) = 571.
	if done != 571 {
		t.Errorf("cold lookup at %d, want 571", done)
	}
	// Second access to same page: L1 hit at 1 cycle.
	start := q.Now()
	l1.Lookup(0x7008, wait(l1, func(Result) { done = q.Now() }))
	drain(q, 100)
	if done-start != 1 {
		t.Errorf("warm lookup latency = %d, want 1", done-start)
	}
	// A different SM's L1 miss hits in L2: flush only L1.
	l1.Flush()
	start = q.Now()
	l1.Lookup(0x7000, wait(l1, func(Result) { done = q.Now() }))
	drain(q, 1000)
	if done-start != 71 {
		t.Errorf("L2-hit lookup latency = %d, want 71", done-start)
	}
}

// TestOnFreeReentrant: a waiter that registers again from inside the
// MSHR-release drain queues behind every waiter already registered.
func TestOnFreeReentrant(t *testing.T) {
	q := clock.New()
	next := &presentSet{q: q, latency: 10, present: map[uint64]bool{}}
	cfg := l1Cfg()
	cfg.MSHRs = 1
	tl, _ := New(cfg, 4096, q, next)
	var order []int64
	again := true
	var waiter clock.Handler
	waiter = func(arg int64) {
		order = append(order, arg)
		if arg == 1 && again {
			again = false
			tl.OnFree(clock.Event{Fn: waiter, Arg: arg})
		}
	}
	if !tl.Lookup(0x1000, wait(tl, func(Result) {})) {
		t.Fatal("first miss rejected")
	}
	if tl.Lookup(0x2000, wait(tl, func(Result) {})) {
		t.Fatal("second miss accepted with every MSHR busy")
	}
	for i := int64(1); i <= 3; i++ {
		tl.OnFree(clock.Event{Fn: waiter, Arg: i})
	}
	drain(q, 100)
	if len(order) != 4 || order[0] != 1 || order[1] != 2 || order[2] != 3 || order[3] != 1 {
		t.Fatalf("waiters ran in order %v, want [1 2 3 1]", order)
	}
	if tl.waiters.Len() != 0 {
		t.Fatalf("%d waiters left after the drain", tl.waiters.Len())
	}
}

// TestRecordSizes pins the size of a merged miss's waiter entry, so
// that growing it is a visible decision: a fault storm parks thousands
// per MSHR. It also pins the bytes each way of the entry array takes
// across its parallel arrays: an 8-byte key and an 8-byte LRU stamp.
func TestRecordSizes(t *testing.T) {
	var m tlbMSHR
	if n := unsafe.Sizeof(m.waiters[0]); n != 8 {
		t.Errorf("MSHR waiter is %d bytes, want 8", n)
	}
	var tl TLB
	if n := unsafe.Sizeof(tl.keys[0]) + unsafe.Sizeof(tl.lru[0]); n != 16 {
		t.Errorf("a TLB way is %d bytes, want 16", n)
	}
}

// TestNewRequiresPowerOfTwoSets: the set index is a mask, so New
// rejects a geometry whose set count is not a power of two and accepts
// the shipped ones.
func TestNewRequiresPowerOfTwoSets(t *testing.T) {
	q := clock.New()
	next := &presentSet{q: q}
	for _, tc := range []struct {
		cfg  Config
		sets int // 0: must be rejected
	}{
		{Config{Name: "3 ways", Entries: 30, Ways: 3}, 0}, // 10 sets
		{Config{Name: "12 sets", Entries: 24, Ways: 2}, 0},
		{Config{Name: "6 sets", Entries: 48, Ways: 8}, 0},
		{Config{Name: "3 ways of 8 sets", Entries: 24, Ways: 3}, 8},
		{Config{Name: "L1 TLB", Entries: 32, Ways: 8}, 4},
		{Config{Name: "L2 TLB", Entries: 1024, Ways: 8, MSHRs: 128}, 128},
	} {
		tl, err := New(tc.cfg, 4096, q, next)
		switch {
		case tc.sets == 0 && err == nil:
			t.Errorf("%s: accepted %d sets", tc.cfg.Name, tl.setMask+1)
		case tc.sets != 0 && err != nil:
			t.Errorf("%s: %v", tc.cfg.Name, err)
		case tc.sets != 0 && int(tl.setMask)+1 != tc.sets:
			t.Errorf("%s: %d sets, want %d", tc.cfg.Name, tl.setMask+1, tc.sets)
		}
	}
}

// refEntry and refTLB are the entry array as it was kept before it
// became flat: a [set][way] array of 24-byte records, found by a
// division and a modulo, with MSHRs as a map of page number to first
// requester, birth cycle and waiter count.
// TestEntryArrayMatchesReference replays random streams against it.
type refEntry struct {
	vpn   uint64
	valid bool
	lru   int64
}

type refTLBMSHR struct {
	pageVA  uint64
	born    int64
	waiters int
}

type refTLB struct {
	cfg      Config
	pageSize uint64
	sets     int
	entries  [][]refEntry
	tick     int64
	stats    Stats
	mshrs    map[uint64]*refTLBMSHR
}

func newRefTLB(cfg Config, pageSize int) *refTLB {
	sets := cfg.Entries / cfg.Ways
	r := &refTLB{cfg: cfg, pageSize: uint64(pageSize), sets: sets,
		entries: make([][]refEntry, sets), mshrs: map[uint64]*refTLBMSHR{}}
	for i := range r.entries {
		r.entries[i] = make([]refEntry, cfg.Ways)
	}
	return r
}

func (r *refTLB) find(vpn uint64) *refEntry {
	set := int(vpn % uint64(r.sets))
	for w := range r.entries[set] {
		if e := &r.entries[set][w]; e.valid && e.vpn == vpn {
			return e
		}
	}
	return nil
}

func (r *refTLB) install(vpn uint64) {
	set := int(vpn % uint64(r.sets))
	victim := &r.entries[set][0]
	for w := range r.entries[set] {
		e := &r.entries[set][w]
		if !e.valid {
			victim = e
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	r.tick++
	*victim = refEntry{vpn: vpn, valid: true, lru: r.tick}
}

func (r *refTLB) lookup(pageVA uint64, now int64) {
	vpn := pageVA / r.pageSize
	if e := r.find(vpn); e != nil {
		r.stats.Hits++
		r.tick++
		e.lru = r.tick
		return
	}
	if m, ok := r.mshrs[vpn]; ok {
		r.stats.Merges++
		m.waiters++
		return
	}
	if r.cfg.MSHRs > 0 && len(r.mshrs) >= r.cfg.MSHRs {
		r.stats.Rejects++
		return
	}
	r.stats.Misses++
	r.mshrs[vpn] = &refTLBMSHR{pageVA: pageVA, born: now, waiters: 1}
}

func (r *refTLB) fill(pageVA uint64, present bool) {
	vpn := pageVA / r.pageSize
	if present {
		r.install(vpn)
	} else {
		r.stats.Faults++
	}
	delete(r.mshrs, vpn)
}

func (r *refTLB) flush() {
	for s := range r.entries {
		clear(r.entries[s])
	}
}

func (r *refTLB) saveState(w *ckpt.Writer) {
	w.I64(r.tick)
	w.I64(r.stats.Hits)
	w.I64(r.stats.Misses)
	w.I64(r.stats.Merges)
	w.I64(r.stats.Rejects)
	w.I64(r.stats.Faults)
	w.Int(r.sets)
	w.Int(r.cfg.Ways)
	for _, set := range r.entries {
		for _, e := range set {
			w.U64(e.vpn)
			w.Bool(e.valid)
			w.I64(e.lru)
		}
	}
	w.Int(0) // no OnFree waiters: the stream never registers one
	vpns := make([]uint64, 0, len(r.mshrs))
	for v := range r.mshrs {
		vpns = append(vpns, v)
	}
	slices.Sort(vpns)
	w.Int(len(vpns))
	for _, v := range vpns {
		m := r.mshrs[v]
		w.U64(v)
		w.U64(m.pageVA)
		w.I64(m.born)
		w.Int(m.waiters)
	}
}

// heldLevel holds every lookup until the test fills it.
type heldLevel struct {
	clients clock.Clients[Handler]
	lookups []heldLookup
}

type heldLookup struct {
	pageVA uint64
	waiter int64
}

func (l *heldLevel) Attach(done Handler) int64 { return l.clients.Add(done) }

func (l *heldLevel) Lookup(pageVA uint64, waiter int64) bool {
	l.lookups = append(l.lookups, heldLookup{pageVA, waiter})
	return true
}

// TestEntryArrayMatchesReference replays random streams of lookups,
// fills (present or faulting) and flushes, with bounded and unbounded
// MSHRs, against the reference [set][way] entry array: hits, misses,
// merges, rejects and faults, and every SaveState byte (the victims'
// positions among them) must agree after every operation. The page
// pool maps several pages to each set, and holds page 0, whose number
// is 0.
func TestEntryArrayMatchesReference(t *testing.T) {
	const pageSize = 4096
	for _, mshrs := range []int{0, 3} {
		for seed := int64(1); seed <= 20; seed++ {
			cfg := Config{Name: "prop", Entries: 16, Ways: 4, MSHRs: mshrs, Latency: 1}
			rng := rand.New(rand.NewSource(seed))
			q := clock.New()
			next := &heldLevel{}
			tl, err := New(cfg, pageSize, q, next)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefTLB(cfg, pageSize)
			var pool []uint64
			for i := 0; i < 24; i++ {
				vpn := uint64(rng.Intn(32))
				if i%6 == 0 {
					vpn += 1 << 36 // a page number far above the set bits
				}
				pool = append(pool, vpn*pageSize)
			}
			waiter := tl.Attach(func(int64, Result) {})
			got, want := ckpt.NewWriter(), ckpt.NewWriter()
			for op := 0; op < 3000; op++ {
				switch k := rng.Intn(20); {
				case k < 11:
					va := pool[rng.Intn(len(pool))] + uint64(rng.Intn(pageSize))
					tl.Lookup(va, waiter)
					ref.lookup(va, q.Now())
				case k < 19:
					if len(next.lookups) == 0 {
						break
					}
					i := rng.Intn(len(next.lookups))
					l := next.lookups[i]
					next.lookups = slices.Delete(next.lookups, i, i+1)
					r := Result{Present: true}
					if rng.Intn(4) == 0 {
						r = Result{Fault: vm.FaultMigrate}
					}
					fn, arg := next.clients.Get(l.waiter)
					fn(arg, r)
					ref.fill(l.pageVA, r.Present)
				default:
					tl.Flush()
					ref.flush()
				}
				q.Step() // issues the misses of the last cycle
				got.Reset()
				want.Reset()
				tl.SaveState(got)
				ref.saveState(want)
				if tl.Stats() != ref.stats || !bytes.Equal(got.Data(), want.Data()) {
					t.Fatalf("MSHRs %d seed %d op %d: stats %+v, reference %+v; state equal %v",
						mshrs, seed, op, tl.Stats(), ref.stats, bytes.Equal(got.Data(), want.Data()))
				}
			}
			if ref.stats.Merges == 0 || ref.stats.Faults == 0 || mshrs > 0 && ref.stats.Rejects == 0 {
				t.Errorf("MSHRs %d seed %d: stream too tame: %+v", mshrs, seed, ref.stats)
			}
		}
	}
}
