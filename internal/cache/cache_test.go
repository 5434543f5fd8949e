package cache

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"gpues/internal/ckpt"
	"gpues/internal/clock"
)

// fakeBackend records traffic and answers fetches after a fixed delay.
type fakeBackend struct {
	q       *clock.Queue
	latency int64
	fetches int
	writes  int
	reject  bool
}

func (b *fakeBackend) Fetch(addr uint64, done clock.Event) bool {
	if b.reject {
		return false
	}
	b.fetches++
	b.q.After(b.latency, done.Fn, done.Arg)
	return true
}

// on wraps a test callback as an event.
func on(fn func()) clock.Event { return clock.Event{Fn: func(int64) { fn() }} }

func (b *fakeBackend) Write(addr uint64) {
	b.writes++
	b.q.Mark(b.q.Now() + b.latency)
}

func run(q *clock.Queue, maxCycles int64) {
	for i := int64(0); i < maxCycles && q.Len() > 0; i++ {
		q.Step()
	}
}

func l1Config() Config {
	return Config{Name: "L1", SizeKB: 32, Ways: 4, LineB: 128, MSHRs: 32, Latency: 40, Policy: WriteThrough}
}

func TestCacheReadMissThenHit(t *testing.T) {
	q := clock.New()
	be := &fakeBackend{q: q, latency: 100}
	c, err := New(l1Config(), q, be)
	if err != nil {
		t.Fatal(err)
	}
	var t1, t2 int64 = -1, -1
	if !c.Access(0x1000, false, on(func() { t1 = q.Now() })) {
		t.Fatal("first access rejected")
	}
	run(q, 1000)
	if t1 < 140 {
		t.Errorf("miss completed at %d, want >= 140 (40 tag + 100 backend)", t1)
	}
	if be.fetches != 1 {
		t.Errorf("backend fetches = %d, want 1", be.fetches)
	}
	c.Access(0x1000, false, on(func() { t2 = q.Now() }))
	start := q.Now()
	run(q, 1000)
	if t2-start != 40 {
		t.Errorf("hit latency = %d, want 40", t2-start)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheMSHRMerge(t *testing.T) {
	q := clock.New()
	be := &fakeBackend{q: q, latency: 100}
	c, _ := New(l1Config(), q, be)
	done := 0
	// Two accesses to the same line and one to a different offset in it.
	c.Access(0x2000, false, on(func() { done++ }))
	c.Access(0x2040, false, on(func() { done++ })) // same 128B line
	c.Access(0x2000, false, on(func() { done++ }))
	run(q, 1000)
	if done != 3 {
		t.Errorf("completions = %d, want 3", done)
	}
	if be.fetches != 1 {
		t.Errorf("backend fetches = %d, want 1 (merged)", be.fetches)
	}
	if s := c.Stats(); s.MSHRMerges != 2 {
		t.Errorf("merges = %d, want 2", s.MSHRMerges)
	}
}

func TestCacheMSHRBackpressure(t *testing.T) {
	q := clock.New()
	be := &fakeBackend{q: q, latency: 10000}
	cfg := l1Config()
	cfg.MSHRs = 2
	c, _ := New(cfg, q, be)
	if !c.Access(0x0000, false, on(func() {})) {
		t.Fatal("access 1 rejected")
	}
	if !c.Access(0x1000, false, on(func() {})) {
		t.Fatal("access 2 rejected")
	}
	if c.Access(0x2000, false, on(func() {})) {
		t.Error("access 3 must be rejected: MSHRs full")
	}
	if c.InFlight() != 2 {
		t.Errorf("in flight = %d", c.InFlight())
	}
	if s := c.Stats(); s.Rejects != 1 {
		t.Errorf("rejects = %d, want 1", s.Rejects)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	q := clock.New()
	be := &fakeBackend{q: q, latency: 1}
	// Tiny direct-ish cache: 1 KB, 2 ways, 128 B lines -> 4 sets.
	cfg := Config{Name: "t", SizeKB: 1, Ways: 2, LineB: 128, MSHRs: 8, Latency: 1, Policy: WriteThrough}
	c, _ := New(cfg, q, be)
	// Three lines mapping to the same set (stride = sets*line = 512).
	for _, a := range []uint64{0, 512, 1024} {
		c.Access(a, false, on(func() {}))
		run(q, 100)
	}
	// Line 0 was LRU and must have been evicted: re-access misses.
	before := c.Stats().Misses
	c.Access(0, false, on(func() {}))
	run(q, 100)
	if c.Stats().Misses != before+1 {
		t.Error("LRU line not evicted")
	}
	// Line 1024 (MRU) still resident.
	beforeHits := c.Stats().Hits
	c.Access(1024, false, on(func() {}))
	run(q, 100)
	if c.Stats().Hits != beforeHits+1 {
		t.Error("MRU line evicted")
	}
}

func TestWriteThroughForwardsTraffic(t *testing.T) {
	q := clock.New()
	be := &fakeBackend{q: q, latency: 1}
	c, _ := New(l1Config(), q, be)
	done := false
	c.Access(0x3000, true, on(func() { done = true }))
	run(q, 100)
	if !done {
		t.Error("store never completed")
	}
	if be.writes != 1 {
		t.Errorf("downstream writes = %d, want 1", be.writes)
	}
	// Write-through no-allocate: a read after a write miss still misses.
	c.Access(0x3000, false, on(func() {}))
	run(q, 100)
	if c.Stats().Hits != 0 {
		t.Error("write miss must not allocate in write-through cache")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	q := clock.New()
	be := &fakeBackend{q: q, latency: 1}
	cfg := Config{Name: "L2", SizeKB: 1, Ways: 2, LineB: 128, MSHRs: 8, Latency: 1, Policy: WriteBack}
	c, _ := New(cfg, q, be)
	// Dirty a line, then evict it with two more lines in the same set.
	c.Access(0, true, on(func() {}))
	run(q, 10)
	if be.writes != 0 {
		t.Fatal("write-back cache must not forward stores immediately")
	}
	c.Access(512, false, on(func() {}))
	run(q, 10)
	c.Access(1024, false, on(func() {}))
	run(q, 10)
	if be.writes != 1 {
		t.Errorf("dirty eviction writes = %d, want 1", be.writes)
	}
	if c.Stats().WriteBacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().WriteBacks)
	}
}

func TestWriteBackHitDirtiesLine(t *testing.T) {
	q := clock.New()
	be := &fakeBackend{q: q, latency: 1}
	cfg := Config{Name: "L2", SizeKB: 1, Ways: 2, LineB: 128, MSHRs: 8, Latency: 1, Policy: WriteBack}
	c, _ := New(cfg, q, be)
	c.Access(0, false, on(func() {}))
	run(q, 10)
	c.Access(0, true, on(func() {})) // hit, dirties
	run(q, 10)
	c.Flush()
	run(q, 10)
	if be.writes != 1 {
		t.Errorf("flush writes = %d, want 1 dirty line", be.writes)
	}
}

// TestWriteMarksCompletion: a cache taking downstream write traffic
// marks the cycle the write completes, Latency cycles on, and schedules
// nothing else.
func TestWriteMarksCompletion(t *testing.T) {
	q := clock.New()
	cfg := Config{Name: "L2", SizeKB: 1, Ways: 2, LineB: 128, MSHRs: 8, Latency: 7, Policy: WriteBack}
	c, _ := New(cfg, q, &fakeBackend{q: q, latency: 1})
	c.Write(0x80)
	c.Write(0x100)
	if got, ok := q.NextEvent(); !ok || got != 7 || q.Len() != 1 {
		t.Fatalf("after two writes: next event %d,%v with %d pending; want one mark at 7", got, ok, q.Len())
	}
	run(q, 100)
	if s := c.Stats(); s.Misses != 2 {
		t.Errorf("stats = %+v, want 2 write misses", s)
	}
}

func TestCacheRetriesRejectedBackend(t *testing.T) {
	q := clock.New()
	be := &fakeBackend{q: q, latency: 1, reject: true}
	cfg := l1Config()
	cfg.Latency = 1
	c, _ := New(cfg, q, be)
	done := false
	c.Access(0x100, false, on(func() { done = true }))
	run(q, 5)
	be.reject = false // backend recovers
	run(q, 100)
	if !done {
		t.Error("access never completed after backend recovered")
	}
}

func TestCacheConfigValidation(t *testing.T) {
	q := clock.New()
	bad := []Config{
		{Name: "a", SizeKB: 32, Ways: 4, LineB: 100, MSHRs: 1, Latency: 1},
		{Name: "b", SizeKB: 0, Ways: 4, LineB: 128, MSHRs: 1, Latency: 1},
		{Name: "c", SizeKB: 32, Ways: 0, LineB: 128, MSHRs: 1, Latency: 1},
		{Name: "d", SizeKB: 1, Ways: 16, LineB: 1024, MSHRs: 1, Latency: 1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, q, nil); err == nil {
			t.Errorf("config %q must be rejected", cfg.Name)
		}
	}
}

// TestOnFreeReentrant: a waiter that registers again from inside the
// drain queues behind every waiter already registered.
func TestOnFreeReentrant(t *testing.T) {
	q := clock.New()
	cfg := l1Config()
	cfg.MSHRs = 1
	c, _ := New(cfg, q, &fakeBackend{q: q, latency: 10})
	var order []int64
	again := true
	var waiter clock.Handler
	waiter = func(arg int64) {
		order = append(order, arg)
		if arg == 1 && again {
			again = false
			c.OnFree(clock.Event{Fn: waiter, Arg: arg})
		}
	}
	if !c.Access(0x0, false, on(func() {})) {
		t.Fatal("first miss rejected")
	}
	if c.Access(0x1000, false, on(func() {})) {
		t.Fatal("second miss accepted with every MSHR busy")
	}
	for i := int64(1); i <= 3; i++ {
		c.OnFree(clock.Event{Fn: waiter, Arg: i})
	}
	run(q, 100)
	if want := []int64{1, 2, 3, 1}; len(order) != len(want) || order[0] != 1 || order[1] != 2 || order[2] != 3 || order[3] != 1 {
		t.Fatalf("waiters ran in order %v, want %v", order, want)
	}
	if c.waiters.Len() != 0 {
		t.Fatalf("%d waiters left after the drain", c.waiters.Len())
	}

}

// TestRecordSizes pins the bytes each way of the tag array takes
// across its parallel arrays, so that growing it is a visible decision:
// an 8-byte key, an 8-byte LRU stamp and a dirty flag. The L2 has
// 16,384 ways.
func TestRecordSizes(t *testing.T) {
	var c Cache
	if n := unsafe.Sizeof(c.keys[0]) + unsafe.Sizeof(c.lru[0]) + unsafe.Sizeof(c.dirty[0]); n != 17 {
		t.Errorf("a cache way is %d bytes, want 17", n)
	}
}

// TestNewRequiresPowerOfTwoSets: the set index is a mask, so New
// rejects a geometry whose set count is not a power of two and accepts
// the shipped ones.
func TestNewRequiresPowerOfTwoSets(t *testing.T) {
	q := clock.New()
	for _, tc := range []struct {
		cfg  Config
		sets int // 0: must be rejected
	}{
		{Config{Name: "3 ways", SizeKB: 32, Ways: 3, LineB: 128, MSHRs: 1}, 0},     // 85 sets
		{Config{Name: "48 KB", SizeKB: 48, Ways: 4, LineB: 128, MSHRs: 1}, 0},      // 96 sets
		{Config{Name: "12 ways", SizeKB: 2048, Ways: 12, LineB: 128, MSHRs: 1}, 0}, // 1365 sets
		{Config{Name: "L1", SizeKB: 32, Ways: 4, LineB: 128, MSHRs: 1}, 64},
		{Config{Name: "L2", SizeKB: 2048, Ways: 8, LineB: 128, MSHRs: 1}, 2048},
	} {
		c, err := New(tc.cfg, q, nil)
		switch {
		case tc.sets == 0 && err == nil:
			t.Errorf("%s: accepted %d sets", tc.cfg.Name, c.setMask+1)
		case tc.sets != 0 && err != nil:
			t.Errorf("%s: %v", tc.cfg.Name, err)
		case tc.sets != 0 && int(c.setMask)+1 != tc.sets:
			t.Errorf("%s: %d sets, want %d", tc.cfg.Name, c.setMask+1, tc.sets)
		}
	}
}

// refLine and refCache are the tag array as it was kept before it
// became flat: a [set][way] array of 24-byte records, found by a
// division and a modulo, with MSHRs as a map of line address to birth
// cycle and waiter count. TestTagArrayMatchesReference replays random
// streams against it.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   int64
}

type refMSHR struct {
	born    int64
	waiters int
}

type refCache struct {
	cfg    Config
	sets   int
	lines  [][]refLine
	tick   int64
	stats  Stats
	mshrs  map[uint64]*refMSHR
	writes []uint64 // downstream write traffic, in order
}

func newRefCache(cfg Config) *refCache {
	sets := cfg.SizeKB * 1024 / cfg.LineB / cfg.Ways
	r := &refCache{cfg: cfg, sets: sets, lines: make([][]refLine, sets), mshrs: map[uint64]*refMSHR{}}
	for i := range r.lines {
		r.lines[i] = make([]refLine, cfg.Ways)
	}
	return r
}

func (r *refCache) find(addr uint64) *refLine {
	tag := addr / uint64(r.cfg.LineB)
	set := int(tag % uint64(r.sets))
	for w := range r.lines[set] {
		if ln := &r.lines[set][w]; ln.valid && ln.tag == tag {
			return ln
		}
	}
	return nil
}

func (r *refCache) install(addr uint64, dirty bool) {
	tag := addr / uint64(r.cfg.LineB)
	set := int(tag % uint64(r.sets))
	victim := &r.lines[set][0]
	for w := range r.lines[set] {
		ln := &r.lines[set][w]
		if !ln.valid {
			victim = ln
			break
		}
		if ln.lru < victim.lru {
			victim = ln
		}
	}
	if victim.valid && victim.dirty {
		r.stats.WriteBacks++
		r.writes = append(r.writes, victim.tag*uint64(r.cfg.LineB))
	}
	r.tick++
	*victim = refLine{tag: tag, valid: true, dirty: dirty, lru: r.tick}
}

func (r *refCache) read(addr uint64, now int64) {
	if ln := r.find(addr); ln != nil {
		r.stats.Hits++
		r.tick++
		ln.lru = r.tick
		return
	}
	if m, ok := r.mshrs[addr]; ok {
		r.stats.MSHRMerges++
		m.waiters++
		return
	}
	if len(r.mshrs) >= r.cfg.MSHRs {
		r.stats.Rejects++
		return
	}
	r.stats.Misses++
	r.mshrs[addr] = &refMSHR{born: now, waiters: 1}
}

func (r *refCache) write(addr uint64) {
	ln := r.find(addr)
	if ln != nil {
		r.stats.Hits++
		r.tick++
		ln.lru = r.tick
	} else {
		r.stats.Misses++
	}
	if r.cfg.Policy == WriteThrough {
		r.writes = append(r.writes, addr)
		return
	}
	if ln != nil {
		ln.dirty = true
	} else {
		r.install(addr, true)
	}
}

func (r *refCache) fill(addr uint64) {
	r.install(addr, false)
	delete(r.mshrs, addr)
}

func (r *refCache) flush() {
	for s := range r.lines {
		for w := range r.lines[s] {
			ln := &r.lines[s][w]
			if ln.valid && ln.dirty {
				r.stats.WriteBacks++
				r.writes = append(r.writes, ln.tag*uint64(r.cfg.LineB))
			}
			*ln = refLine{}
		}
	}
}

func (r *refCache) saveState(w *ckpt.Writer) {
	w.I64(r.tick)
	w.I64(r.stats.Hits)
	w.I64(r.stats.Misses)
	w.I64(r.stats.MSHRMerges)
	w.I64(r.stats.Rejects)
	w.I64(r.stats.WriteBacks)
	w.Int(r.sets)
	w.Int(r.cfg.Ways)
	for _, set := range r.lines {
		for _, l := range set {
			w.U64(l.tag)
			w.Bool(l.valid)
			w.Bool(l.dirty)
			w.I64(l.lru)
		}
	}
	w.Int(0) // no OnFree waiters: the stream never registers one
	addrs := make([]uint64, 0, len(r.mshrs))
	for a := range r.mshrs {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	w.Int(len(addrs))
	for _, a := range addrs {
		w.U64(a)
		w.I64(r.mshrs[a].born)
		w.Int(r.mshrs[a].waiters)
	}
}

// heldBackend holds every fetch until the test fills it, and logs the
// write traffic.
type heldBackend struct {
	fetches []heldFetch
	writes  []uint64
}

type heldFetch struct {
	addr uint64
	done clock.Event
}

func (b *heldBackend) Fetch(addr uint64, done clock.Event) bool {
	b.fetches = append(b.fetches, heldFetch{addr, done})
	return true
}

func (b *heldBackend) Write(addr uint64) { b.writes = append(b.writes, addr) }

// TestTagArrayMatchesReference replays random streams of reads, writes,
// fills and flushes, under both write policies, against the reference
// [set][way] tag array: hits, misses, merges, rejects and write-backs,
// the victims' write-back addresses and every SaveState byte must
// agree after every operation. The line pool maps several lines to
// each set, and holds line 0, whose tag is 0.
func TestTagArrayMatchesReference(t *testing.T) {
	for _, policy := range []WritePolicy{WriteThrough, WriteBack} {
		for seed := int64(1); seed <= 20; seed++ {
			cfg := Config{Name: "prop", SizeKB: 1, Ways: 4, LineB: 64, MSHRs: 3, Latency: 1, Policy: policy}
			rng := rand.New(rand.NewSource(seed))
			q := clock.New()
			be := &heldBackend{}
			c, err := New(cfg, q, be)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefCache(cfg)
			var pool []uint64
			for i := 0; i < 24; i++ {
				num := uint64(rng.Intn(32))
				if i%6 == 0 {
					num += 1 << 40 // a tag far above the set bits
				}
				pool = append(pool, num*uint64(cfg.LineB))
			}
			nop := clock.Event{Fn: func(int64) {}}
			got, want := ckpt.NewWriter(), ckpt.NewWriter()
			for op := 0; op < 3000; op++ {
				addr := pool[rng.Intn(len(pool))] + uint64(rng.Intn(cfg.LineB))
				switch k := rng.Intn(20); {
				case k < 9:
					c.Access(addr, false, nop)
					ref.read(addr&^uint64(cfg.LineB-1), q.Now())
				case k < 14:
					c.Access(addr, true, nop)
					ref.write(addr &^ uint64(cfg.LineB-1))
				case k < 19:
					if len(be.fetches) == 0 {
						break
					}
					i := rng.Intn(len(be.fetches))
					f := be.fetches[i]
					be.fetches = slices.Delete(be.fetches, i, i+1)
					f.done.Fire()
					ref.fill(f.addr)
				default:
					c.Flush()
					ref.flush()
				}
				q.Step() // issues the misses of the last cycle
				got.Reset()
				want.Reset()
				c.SaveState(got)
				ref.saveState(want)
				if c.Stats() != ref.stats || !slices.Equal(be.writes, ref.writes) ||
					!bytes.Equal(got.Data(), want.Data()) {
					t.Fatalf("%v seed %d op %d: stats %+v, reference %+v; %d writes, reference %d; state equal %v",
						policy, seed, op, c.Stats(), ref.stats, len(be.writes), len(ref.writes),
						bytes.Equal(got.Data(), want.Data()))
				}
			}
			if ref.stats.WriteBacks == 0 && policy == WriteBack || ref.stats.Rejects == 0 || ref.stats.MSHRMerges == 0 {
				t.Errorf("%v seed %d: stream too tame: %+v", policy, seed, ref.stats)
			}
		}
	}
}
