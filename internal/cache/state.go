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

	// Each way as a (tag, valid, dirty, lru) record, set by set; an
	// invalid way's tag is 0.
	w.Int(int(c.setMask) + 1)
	w.Int(c.cfg.Ways)
	for i, k := range c.keys {
		w.U64(max(k, 1) - 1)
		w.Bool(k != 0)
		w.Bool(c.dirty[i])
		w.I64(c.lru[i])
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
