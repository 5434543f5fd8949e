package cache

import (
	"testing"

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
