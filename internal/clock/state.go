package clock

import (
	"sort"

	"gpues/internal/ckpt"
)

// SaveState serializes the queue's checkpointable view: the clock
// itself plus a structural summary of the pending event population.
// An event's handler is a function value and its payload an index into
// state its component owns, so neither is serialized; an audit
// rebuilds the population by deterministic replay, and the summary
// written here — total count, overdue count, and the per-cycle pending
// counts in ascending cycle order — is what the replay is verified
// against. Events carrying a handler and a payload instead of a
// closure left the summary, and so every checkpoint digest, unchanged.
// Marks count as nodes, but the marks at one cycle inside the horizon
// share a node (none beside an event), so a marked cycle counts once
// in the summary however often it was marked; marks beyond the
// horizon merge when they migrate into the ring.
func (q *Queue) SaveState(w *ckpt.Writer) {
	w.I64(q.now)
	w.U64(q.seq)
	w.Int(q.n)

	overdue := 0
	for nd := q.overdue.head; nd != nil; nd = nd.next {
		overdue++
	}
	w.Int(overdue)

	// Per-cycle counts: the ring holds cycles [now, now+numBuckets); a
	// bucket's nodes all share one cycle, so walking buckets in cycle
	// order (starting at now's slot) yields ascending cycles. Overflow
	// events live at now+numBuckets or later.
	counts := make(map[int64]int)
	for i := int64(0); i < numBuckets; i++ {
		c := q.now + i
		for nd := q.buckets[int(c)&bucketMask].head; nd != nil; nd = nd.next {
			counts[c]++
		}
	}
	for i := range q.overflow {
		counts[q.overflow[i].cycle]++
	}
	cycles := make([]int64, 0, len(counts))
	for c := range counts {
		cycles = append(cycles, c)
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
	w.Int(len(cycles))
	for _, c := range cycles {
		w.I64(c - q.now) // relative, so equal schedules digest equally
		w.Int(counts[c])
	}
}
