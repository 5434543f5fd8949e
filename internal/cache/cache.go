// Package cache implements the set-associative cache models of the
// memory hierarchy (Table 1): a write-through, no-allocate L1 per SM and
// a write-back, write-allocate shared L2, both with a bounded number of
// MSHRs that merge secondary misses and exert backpressure when full.
package cache

import (
	"fmt"
	"math/bits"
	"sort"

	"gpues/internal/clock"
	"gpues/internal/obs"
)

// Backend is the next level below a cache (another cache or DRAM).
type Backend interface {
	// Fetch requests a line; done runs when the data is available.
	// A false return means the level cannot accept the request now and
	// the caller must retry.
	Fetch(addr uint64, done clock.Event) bool
	// Write hands a line of store traffic downstream. Every level
	// accepts it at once and nobody waits on it: the level accounts
	// for its bandwidth and marks the cycle the write completes.
	Write(addr uint64)
}

// WritePolicy selects how stores are handled.
type WritePolicy uint8

const (
	// WriteThrough (L1): stores update the line if present and always
	// forward downstream; misses do not allocate.
	WriteThrough WritePolicy = iota
	// WriteBack (L2): stores allocate and dirty the line; dirty victims
	// are written downstream on eviction.
	WriteBack
)

// Stats counts cache events.
type Stats struct {
	Hits       int64
	Misses     int64
	MSHRMerges int64
	Rejects    int64 // accesses refused because MSHRs were full
	WriteBacks int64
}

// mshr tracks one outstanding miss. MSHRs are records of the cache's
// MSHR table, whose index is the payload of their issue and fill
// events; the waiters slice capacity survives reuse, so a steady stream
// of misses allocates nothing.
type mshr struct {
	addr    uint64
	waiters []clock.Event
	born    int64 // cycle the miss was allocated (leak detection)
	id      int64 // index in Cache.mshrTab
}

// Config sizes a cache.
type Config struct {
	Name    string
	SizeKB  int
	Ways    int
	LineB   int
	MSHRs   int
	Latency int64
	Policy  WritePolicy
}

// Cache is one cache level. Not safe for concurrent use.
//
// The tag array is flat and set-major: way w of set s is entry
// s*Ways+w of keys, lru and dirty. A key is the line's number (its
// address >> log2 of the line size) plus one, and 0 marks an invalid
// way, so a lookup compares one word per way. An invalid way's lru
// and dirty are zero.
type Cache struct {
	cfg   Config
	keys  []uint64
	lru   []int64
	dirty []bool
	//simlint:ckptskip construction-time geometry derived from cfg, which the config fingerprint covers
	shift uint8 // log2 of the line size
	//simlint:ckptskip construction-time geometry derived from cfg, which the config fingerprint covers
	setMask uint64 // sets-1: the set of line number n is n&setMask
	//simlint:ckptskip wiring to the shared event queue, which checkpoints itself as the clock section
	q *clock.Queue
	//simlint:ckptskip wiring to the lower level, which checkpoints itself as its own section
	next  Backend
	mshrs map[uint64]*mshr // keyed by line address
	//simlint:ckptskip every MSHR ever built, by id: the payload index of its events; mshrs names the live ones
	mshrTab clock.Table[mshr]
	//simlint:ckptskip handler built once at construction
	issueFn clock.Handler // issueFetch(mshrTab.At(arg)); also the downstream-full retry
	//simlint:ckptskip handler built once at construction
	fillFn clock.Handler // fill(mshrTab.At(arg)) — the downstream fetch completion
	stats  Stats
	tick   int64 // LRU clock
	//simlint:ckptskip retry events; SaveState digests the count and replay rebuilds the population
	waiters clock.FIFO[clock.Event]
}

// freeNotifier is implemented by levels that can call back when miss
// resources free up, avoiding per-cycle retry polling.
type freeNotifier interface{ OnFree(clock.Event) }

// OnFree registers e to run when an MSHR is released. Rejected callers
// use this instead of polling; e typically retries the access and
// re-registers if still rejected.
func (c *Cache) OnFree(e clock.Event) { c.waiters.Push(e) }

// release drains waiters while miss resources are available.
func (c *Cache) release() {
	for c.waiters.Len() > 0 && len(c.mshrs) < c.cfg.MSHRs {
		c.waiters.Pop().Fire()
	}
}

// New builds a cache over the backend.
func New(cfg Config, q *clock.Queue, next Backend) (*Cache, error) {
	if cfg.LineB <= 0 || cfg.LineB&(cfg.LineB-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineB)
	}
	if cfg.Ways <= 0 || cfg.SizeKB <= 0 {
		return nil, fmt.Errorf("cache %s: bad geometry %d KB / %d ways", cfg.Name, cfg.SizeKB, cfg.Ways)
	}
	total := cfg.SizeKB * 1024 / cfg.LineB
	sets := total / cfg.Ways
	if sets == 0 {
		return nil, fmt.Errorf("cache %s: fewer lines (%d) than ways (%d)", cfg.Name, total, cfg.Ways)
	}
	// The set index is a mask of the line number, so the set count
	// must be a power of two.
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: %d lines in %d ways is not a power-of-two number of sets",
			cfg.Name, total, cfg.Ways)
	}
	n := sets * cfg.Ways
	c := &Cache{
		cfg:     cfg,
		keys:    make([]uint64, n),
		lru:     make([]int64, n),
		dirty:   make([]bool, n),
		shift:   uint8(bits.TrailingZeros(uint(cfg.LineB))),
		setMask: uint64(sets - 1),
		q:       q,
		next:    next,
		mshrs:   make(map[uint64]*mshr),
	}
	c.issueFn = c.onIssue
	c.fillFn = c.onFill
	return c, nil
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// RegisterMetrics exposes the cache's counters as gauges.
func (c *Cache) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix+".hits", func() int64 { return c.stats.Hits })
	reg.Gauge(prefix+".misses", func() int64 { return c.stats.Misses })
	reg.Gauge(prefix+".mshr_merges", func() int64 { return c.stats.MSHRMerges })
	reg.Gauge(prefix+".rejects", func() int64 { return c.stats.Rejects })
	reg.Gauge(prefix+".writebacks", func() int64 { return c.stats.WriteBacks })
}

// InFlight returns the number of occupied MSHRs.
func (c *Cache) InFlight() int { return len(c.mshrs) }

// CheckInvariants validates the cache's structural state: MSHR
// occupancy within capacity, and (when maxAge > 0) no outstanding miss
// older than maxAge cycles — a stuck MSHR is a leaked miss.
func (c *Cache) CheckInvariants(now, maxAge int64) []string {
	var v []string
	if len(c.mshrs) > c.cfg.MSHRs {
		v = append(v, fmt.Sprintf("%s: %d MSHRs in flight exceed capacity %d",
			c.cfg.Name, len(c.mshrs), c.cfg.MSHRs))
	}
	if maxAge > 0 {
		// Sorted addresses keep the violation report deterministic run
		// to run (map iteration order is randomised).
		addrs := make([]uint64, 0, len(c.mshrs))
		for addr := range c.mshrs {
			addrs = append(addrs, addr)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, addr := range addrs {
			if age := now - c.mshrs[addr].born; age > maxAge {
				v = append(v, fmt.Sprintf("%s: miss on line %#x outstanding for %d cycles (leak?)",
					c.cfg.Name, addr, age))
			}
		}
	}
	return v
}

func (c *Cache) lineAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineB-1) }

// set returns the first tag array index of the set holding line
// number num.
func (c *Cache) set(num uint64) int { return int(num&c.setMask) * c.cfg.Ways }

// find returns the tag array index of the line holding addr, or -1.
func (c *Cache) find(addr uint64) int {
	num := addr >> c.shift
	base := c.set(num)
	for w, k := range c.keys[base : base+c.cfg.Ways] {
		if k == num+1 {
			return base + w
		}
	}
	return -1
}

// install places the line, evicting the victim: the first invalid way,
// else the way with the strictly lowest LRU stamp, way 0 first. A
// dirty victim is written back downstream.
func (c *Cache) install(addr uint64, dirty bool) {
	num := addr >> c.shift
	base := c.set(num)
	v := base
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.keys[i] == 0 {
			v = i
			break
		}
		if c.lru[i] < c.lru[v] {
			v = i
		}
	}
	if c.keys[v] != 0 && c.dirty[v] {
		c.stats.WriteBacks++
		c.sendWrite((c.keys[v] - 1) << c.shift)
	}
	c.tick++
	c.keys[v], c.lru[v], c.dirty[v] = num+1, c.tick, dirty
}

// sendWrite forwards write traffic downstream.
func (c *Cache) sendWrite(addr uint64) {
	if c.next != nil {
		c.next.Write(addr)
	}
}

// Access performs a load (write=false) or store (write=true) of one
// coalesced request. done runs when the access completes from the
// caller's perspective. Returns false when the access cannot be
// accepted (MSHRs full) — the caller must retry.
//
//simlint:noalloc
func (c *Cache) Access(addr uint64, write bool, done clock.Event) bool {
	addr = c.lineAddr(addr)
	if write {
		c.accessWrite(addr)
		c.q.After(c.cfg.Latency, done.Fn, done.Arg)
		return true
	}
	return c.accessRead(addr, done)
}

//simlint:noalloc
func (c *Cache) accessRead(addr uint64, done clock.Event) bool {
	if i := c.find(addr); i >= 0 {
		c.stats.Hits++
		c.tick++
		c.lru[i] = c.tick
		c.q.After(c.cfg.Latency, done.Fn, done.Arg)
		return true
	}
	if m, ok := c.mshrs[addr]; ok {
		c.stats.MSHRMerges++
		m.waiters = append(m.waiters, done)
		return true
	}
	if len(c.mshrs) >= c.cfg.MSHRs {
		c.stats.Rejects++
		return false
	}
	c.stats.Misses++
	id, m := c.mshrTab.Get()
	*m = mshr{addr: addr, waiters: append(m.waiters[:0], done), born: c.q.Now(), id: id}
	c.mshrs[addr] = m
	// Tag lookup takes the access latency before the miss goes down.
	c.q.After(c.cfg.Latency, c.issueFn, m.id)
	return true
}

func (c *Cache) onIssue(id int64) { c.issueFetch(c.mshrTab.At(id)) }

func (c *Cache) onFill(id int64) { c.fill(c.mshrTab.At(id)) }

func (c *Cache) issueFetch(m *mshr) {
	if !c.next.Fetch(m.addr, clock.Event{Fn: c.fillFn, Arg: m.id}) {
		if fn, okN := c.next.(freeNotifier); okN {
			fn.OnFree(clock.Event{Fn: c.issueFn, Arg: m.id})
		} else {
			c.q.After(1, c.issueFn, m.id)
		}
	}
}

// fill completes a miss: install the line, retire the MSHR, run the
// merged waiters in arrival order, then free it. Freeing happens last
// so a waiter that immediately re-misses gets a different record than
// the one still being drained.
func (c *Cache) fill(m *mshr) {
	c.install(m.addr, false)
	delete(c.mshrs, m.addr)
	for _, w := range m.waiters {
		w.Fire()
	}
	c.release()
	c.mshrTab.Free(m.id, m)
}

// accessWrite applies a store to the tag array and forwards its
// traffic; the store completes Latency cycles later.
func (c *Cache) accessWrite(addr uint64) {
	i := c.find(addr)
	switch c.cfg.Policy {
	case WriteThrough:
		if i >= 0 {
			c.stats.Hits++
			c.tick++
			c.lru[i] = c.tick
		} else {
			c.stats.Misses++
		}
		// The store completes locally (store buffer); traffic continues
		// downstream in the background.
		c.sendWrite(addr)
	default: // WriteBack
		if i >= 0 {
			c.stats.Hits++
			c.tick++
			c.lru[i] = c.tick
			c.dirty[i] = true
		} else {
			// Write-allocate without fetch: the whole line is assumed
			// written (coalesced 128 B stores make this the common case).
			c.stats.Misses++
			c.install(addr, true)
		}
	}
}

// Fetch implements Backend, so a cache can back another cache (the L1s
// fetch their misses from the L2).
func (c *Cache) Fetch(addr uint64, done clock.Event) bool {
	return c.accessRead(c.lineAddr(addr), done)
}

// Write implements Backend for downstream write traffic.
func (c *Cache) Write(addr uint64) {
	c.accessWrite(c.lineAddr(addr))
	c.q.Mark(c.q.Now() + c.cfg.Latency)
}

// Flush writes back all dirty lines and invalidates the cache (used at
// kernel boundaries).
func (c *Cache) Flush() {
	for i, k := range c.keys {
		if k != 0 && c.dirty[i] {
			c.stats.WriteBacks++
			c.sendWrite((k - 1) << c.shift)
		}
	}
	clear(c.keys)
	clear(c.lru)
	clear(c.dirty)
}
