package tlb

import (
	"sort"

	"gpues/internal/ckpt"
)

// SaveState serializes the TLB: LRU clock, statistics, the full entry
// array, and a structural summary of in-flight miss handling (sorted by
// VPN — the mshrs map must never be iterated raw). Waiters and hit
// deliveries are rebuilt by replay on restore.
func (t *TLB) SaveState(w *ckpt.Writer) {
	w.I64(t.tick)
	w.I64(t.stats.Hits)
	w.I64(t.stats.Misses)
	w.I64(t.stats.Merges)
	w.I64(t.stats.Rejects)
	w.I64(t.stats.Faults)

	// Each way as a (vpn, valid, lru) record, set by set; an invalid
	// way's vpn is 0.
	w.Int(int(t.setMask) + 1)
	w.Int(t.cfg.Ways)
	for i, k := range t.keys {
		w.U64(max(k, 1) - 1)
		w.Bool(k != 0)
		w.I64(t.lru[i])
	}

	w.Int(t.waiters.Len())
	vpns := make([]uint64, 0, len(t.mshrs))
	for v := range t.mshrs {
		vpns = append(vpns, v)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	w.Int(len(vpns))
	for _, v := range vpns {
		m := t.mshrs[v]
		w.U64(v)
		w.U64(m.pageVA)
		w.I64(m.born)
		w.Int(len(m.waiters))
	}
}

// SaveState serializes the fill unit: walk counters, busy walkers and
// the queued walk requests in queue order (their completion waiters
// are rebuilt by replay).
func (f *FillUnit) SaveState(w *ckpt.Writer) {
	w.I64(f.Walks)
	w.I64(f.FaultsDetected)
	w.I64(f.FaultsInjected)
	w.Int(f.busy)
	w.Int(f.queue.Len())
	f.queue.Each(func(r *walkReq) { w.U64(r.pageVA) })
}
