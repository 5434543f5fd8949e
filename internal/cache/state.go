package cache

import (
	"sort"

	"gpues/internal/ckpt"
)

// SaveState serializes the cache: LRU clock, statistics, the full tag
// array, and a structural summary of the in-flight MSHRs (sorted by
// line address — the mshrs map must never be iterated raw). MSHR
// waiter events are rebuilt by replay on restore.
func (c *Cache) SaveState(w *ckpt.Writer) {
	w.I64(c.tick)
	w.I64(c.stats.Hits)
	w.I64(c.stats.Misses)
	w.I64(c.stats.MSHRMerges)
	w.I64(c.stats.Rejects)
	w.I64(c.stats.WriteBacks)

	w.Int(c.sets)
	w.Int(c.cfg.Ways)
	for _, set := range c.lines {
		for i := range set {
			l := &set[i]
			w.U64(l.tag)
			w.Bool(l.valid)
			w.Bool(l.dirty)
			w.I64(l.lru)
		}
	}

	w.Int(c.waiters.Len())
	addrs := make([]uint64, 0, len(c.mshrs))
	for a := range c.mshrs {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.Int(len(addrs))
	for _, a := range addrs {
		m := c.mshrs[a]
		w.U64(a)
		w.I64(m.born)
		w.Int(len(m.waiters))
	}
}
