// Package clock provides the discrete-event backbone of the timing
// simulator: a current cycle and a queue of scheduled callbacks. The SM
// pipelines tick cycle by cycle; the memory system components (caches,
// TLBs, DRAM, interconnect, host) schedule completions on the queue.
// When every SM is idle the main loop skips directly to the next event
// cycle, which makes fault-dominated phases cheap to simulate.
//
// The queue is a bucketed calendar queue: events within the near-future
// horizon (numBuckets cycles) live in a ring of per-cycle FIFO lists
// indexed by cycle modulo the horizon, with a two-level bitmap locating
// the next non-empty bucket in O(1) word operations. Events beyond the
// horizon wait in a small overflow min-heap and migrate into the ring
// as the clock advances. Event nodes come from a free list refilled in
// slabs, so steady-state scheduling performs no heap allocation.
// Ordering semantics are exactly those of the previous container/heap
// implementation: earliest cycle first, FIFO (scheduling order) among
// same-cycle events.
//
// An event is a Handler and an int64 payload. A component builds its
// handlers once, as method values kept in fields, and puts what an
// event acts on in the payload — a table index, a slot, a cycle count
// — so scheduling never builds a closure. A Table holds the records
// events name, and parks larger payloads, under an index.
//
// A mark (Mark) is a node with no handler: it makes the main loop
// visit its cycle and runs nothing there. Write acknowledgements and
// other completions nobody waits on use it instead of scheduling an
// event that does nothing. A ring bucket holds one cycle, so a mark whose bucket
// is already occupied needs no node of its own.
//
// Nearly every latency in the simulated machine — L1/L2 hit latencies,
// TLB fills, DRAM accesses, link occupancies — is far below the
// horizon, so the overflow heap only sees the microsecond-scale fault
// service round trips, which are rare by construction.
package clock

import "math/bits"

const (
	bucketBits = 11
	// numBuckets is the calendar horizon: events scheduled fewer than
	// this many cycles ahead go straight into the ring.
	numBuckets = 1 << bucketBits
	bucketMask = numBuckets - 1
	// occWords is the size of the first-level occupancy bitmap; the
	// second level (occSum) has one bit per word and fits in a uint32.
	occWords = numBuckets / 64
	// slabNodes is how many nodes the free list grows by at once.
	slabNodes = 256
)

// Handler is an event callback; it receives the payload its event was
// scheduled with.
type Handler func(arg int64)

// Event is a handler with its payload: a completion one component hands
// another to schedule or run later.
type Event struct {
	Fn  Handler
	Arg int64
}

// Fire runs the event's handler now.
func (e Event) Fire() { e.Fn(e.Arg) }

// node is one scheduled event in the ring or on the overdue list, or a
// mark when fn is nil. It holds neither cycle nor sequence number: a
// ring bucket holds one cycle, which its index gives, and its list
// order is the FIFO order of that cycle's events. Nodes are pooled:
// RunDue returns them to the free list before invoking the handler.
type node struct {
	fn   Handler
	arg  int64
	next *node
}

// farEvent is an event beyond the horizon, waiting in the overflow
// heap: it keeps its cycle, and its sequence number orders it among
// same-cycle events until it migrates into the ring.
type farEvent struct {
	cycle int64
	seq   uint64 // FIFO order among same-cycle events
	fn    Handler
	arg   int64
}

// bucketList is one calendar slot: a FIFO of same-cycle events.
type bucketList struct {
	head, tail *node
}

// Queue is the simulation clock and event queue. Not safe for
// concurrent use; the whole timing simulation is single-threaded.
type Queue struct {
	now int64
	seq uint64
	n   int // total pending events (ring + overflow)

	//simlint:ckptskip holds handlers; SaveState digests the per-cycle counts and replay rebuilds the population
	buckets [numBuckets]bucketList
	//simlint:ckptskip derived occupancy index over buckets, whose per-cycle counts SaveState digests
	occ [occWords]uint64 // bit per non-empty bucket
	//simlint:ckptskip derived occupancy index over occ, whose per-cycle counts SaveState digests
	occSum uint32 // bit per non-zero occ word

	// overdue holds events left behind at a cycle the clock has already
	// advanced past (scheduled at cycle == now and not drained before the
	// clock moved, e.g. via After(0) outside a drain). They run at the
	// next drain, ahead of everything scheduled for later cycles. The
	// list is in insertion order, which is exactly (cycle, seq) order:
	// an overdue event's cycle is the now at its insertion, and now is
	// monotonic. overdueAt is the cycle of its head, the earliest.
	//simlint:ckptskip holds handlers; SaveState digests the count and replay rebuilds the population
	overdue bucketList
	//simlint:ckptskip cycle of the overdue list's head; SaveState digests the overdue count and replay rebuilds the list
	overdueAt int64

	//simlint:ckptskip node free list, a pure allocation cache that holds no simulated state
	free *node

	// overflow holds events at now+numBuckets or later, ordered by
	// (cycle, seq); they migrate into the ring as now advances.
	//simlint:ckptskip holds handlers; SaveState digests the per-cycle counts and replay rebuilds the population
	overflow []farEvent
}

// New returns a queue at cycle 0.
func New() *Queue { return &Queue{} }

// Now returns the current cycle.
func (q *Queue) Now() int64 { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.n }

// alloc takes a node from the free list, refilling it a slab at a
// time; the refill is the only allocation, paid once per slabNodes of
// the high-water mark of pending events.
//
//simlint:noalloc
func (q *Queue) alloc() *node {
	if q.free == nil {
		//simlint:ignore noalloc grow path, one slab per slabNodes of the high-water mark of pending events
		slab := make([]node, slabNodes)
		for i := range slab[:slabNodes-1] {
			slab[i].next = &slab[i+1]
		}
		q.free = &slab[0]
	}
	nd := q.free
	q.free = nd.next
	nd.next = nil
	return nd
}

// recycle returns a drained node to the free list. Callers must drop
// every reference to nd first: the next alloc may hand it out again.
//
//simlint:releases 0
//simlint:noalloc
func (q *Queue) recycle(nd *node) {
	nd.fn, nd.arg = nil, 0
	nd.next = q.free
	q.free = nd
}

func (q *Queue) setOcc(b int) {
	q.occ[b>>6] |= 1 << (uint(b) & 63)
	q.occSum |= 1 << (uint(b) >> 6)
}

func (q *Queue) occupied(b int) bool { return q.occ[b>>6]&(1<<(uint(b)&63)) != 0 }

func (q *Queue) clrOcc(b int) {
	w := b >> 6
	q.occ[w] &^= 1 << (uint(b) & 63)
	if q.occ[w] == 0 {
		q.occSum &^= 1 << uint(w)
	}
}

// push appends nd to the ring bucket of cycle (FIFO tail), which must
// lie in [now, now+numBuckets).
//
//simlint:noalloc
func (q *Queue) push(cycle int64, nd *node) {
	b := int(cycle) & bucketMask
	bl := &q.buckets[b]
	if bl.tail == nil {
		bl.head = nd
		q.setOcc(b)
	} else {
		bl.tail.next = nd
	}
	bl.tail = nd
}

// At schedules fn(arg) to run at the given absolute cycle. Events
// scheduled in the past run at the current cycle's drain. Same-cycle
// events run in scheduling order.
//
//simlint:noalloc
func (q *Queue) At(cycle int64, fn Handler, arg int64) {
	if cycle < q.now {
		cycle = q.now
	}
	q.seq++
	if cycle-q.now < numBuckets {
		nd := q.alloc()
		nd.fn, nd.arg = fn, arg
		q.push(cycle, nd)
	} else {
		q.overflowPush(farEvent{cycle: cycle, seq: q.seq, fn: fn, arg: arg})
	}
	q.n++
}

// Mark makes the main loop visit the given absolute cycle without
// running anything there: NextEvent, SkipTo and Len see it as an event
// whose callback does nothing. Marks in the past land at the current
// cycle. A cycle whose ring bucket already holds an event or a mark
// gets no further node; a mark beyond the horizon is checked again
// when it migrates into the ring.
//
//simlint:noalloc
func (q *Queue) Mark(cycle int64) {
	if cycle < q.now {
		cycle = q.now
	}
	if cycle-q.now >= numBuckets {
		q.overflowPush(farEvent{cycle: cycle})
	} else if !q.occupied(int(cycle) & bucketMask) {
		q.push(cycle, q.alloc())
	} else {
		return
	}
	q.n++
}

// After schedules fn(arg) to run delay cycles from now.
//
//simlint:noalloc
func (q *Queue) After(delay int64, fn Handler, arg int64) { q.At(q.now+delay, fn, arg) }

// migrate moves overflow events that entered the horizon into the ring.
// It must run every time now changes: the migration condition matches
// the ring-insertion condition in At, so a bucket never receives a
// direct insert while an earlier-scheduled same-cycle event still waits
// in the overflow heap — which is what keeps same-cycle FIFO exact.
//
//simlint:noalloc
func (q *Queue) migrate() {
	for len(q.overflow) > 0 && q.overflow[0].cycle-q.now < numBuckets {
		ev := q.overflowPop()
		if ev.fn == nil && q.occupied(int(ev.cycle)&bucketMask) {
			q.n--
			continue
		}
		nd := q.alloc()
		nd.fn, nd.arg = ev.fn, ev.arg
		q.push(ev.cycle, nd)
	}
}

// advance moves the clock to a later cycle: events still pending at the
// cycle being left (the current slot can only hold cycle == now events)
// are stashed on the overdue list, and overflow events that entered the
// horizon migrate into the ring.
//
//simlint:noalloc
func (q *Queue) advance(to int64) {
	b := int(q.now) & bucketMask
	if bl := &q.buckets[b]; bl.head != nil {
		if q.overdue.tail == nil {
			q.overdue.head = bl.head
			q.overdueAt = q.now
		} else {
			q.overdue.tail.next = bl.head
		}
		q.overdue.tail = bl.tail
		bl.head, bl.tail = nil, nil
		q.clrOcc(b)
	}
	q.now = to
	if len(q.overflow) > 0 {
		q.migrate()
	}
}

// RunDue runs every event scheduled at or before the current cycle,
// including events those events schedule for the current cycle.
//
//simlint:noalloc
func (q *Queue) RunDue() {
	for q.overdue.head != nil {
		nd := q.overdue.head
		q.overdue.head = nd.next
		if q.overdue.head == nil {
			q.overdue.tail = nil
		}
		q.n--
		fn, arg := nd.fn, nd.arg
		q.recycle(nd)
		if fn != nil {
			fn(arg)
		}
	}
	// now's bucket holds only events at now: the ring spans one horizon.
	b := int(q.now) & bucketMask
	bl := &q.buckets[b]
	for bl.head != nil {
		nd := bl.head
		bl.head = nd.next
		if bl.head == nil {
			bl.tail = nil
			q.clrOcc(b)
		}
		q.n--
		fn, arg := nd.fn, nd.arg
		q.recycle(nd)
		if fn != nil {
			fn(arg)
		}
	}
}

// Step advances the clock by one cycle and runs due events.
//
//simlint:noalloc
func (q *Queue) Step() {
	q.advance(q.now + 1)
	q.RunDue()
}

// nextBucket returns the ring index of the first non-empty bucket at or
// cyclically after the current cycle's slot, or -1 when the ring is
// empty. Because every ring event lies in [now, now+numBuckets), cyclic
// distance from now's slot equals cycle order.
func (q *Queue) nextBucket() int {
	if q.occSum == 0 {
		return -1
	}
	s := int(q.now) & bucketMask
	w, bit := s>>6, uint(s)&63
	if m := q.occ[w] &^ (1<<bit - 1); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	// Remaining words in cyclic order after w; the summary bitmap (never
	// zero here) gives the first non-zero one. A full wrap back to w
	// means only w's low bits — cyclically the farthest buckets — remain.
	rot := bits.RotateLeft32(q.occSum, -(w + 1))
	w2 := (w + 1 + bits.TrailingZeros32(rot)) % occWords
	if w2 == w {
		if m := q.occ[w] & (1<<bit - 1); m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
		return -1
	}
	return w2<<6 + bits.TrailingZeros64(q.occ[w2])
}

// NextEvent returns the cycle of the earliest pending event.
func (q *Queue) NextEvent() (int64, bool) {
	if q.overdue.head != nil {
		return q.overdueAt, true
	}
	if b := q.nextBucket(); b >= 0 {
		return q.now + int64((b-int(q.now))&bucketMask), true
	}
	if len(q.overflow) > 0 {
		return q.overflow[0].cycle, true
	}
	return 0, false
}

// SkipTo advances the clock to the given cycle (never backwards),
// running intermediate events at their own scheduled cycles so that
// handlers observe the correct Now. Used when all SMs are asleep.
func (q *Queue) SkipTo(cycle int64) {
	for {
		next, ok := q.NextEvent()
		if !ok || next > cycle {
			break
		}
		if next > q.now {
			q.advance(next)
		}
		q.RunDue()
	}
	if cycle > q.now {
		q.advance(cycle)
	}
}

// overflow min-heap, ordered by (cycle, seq) ----------------------------

func overflowLess(a, b *farEvent) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

func (q *Queue) overflowPush(ev farEvent) {
	q.overflow = append(q.overflow, ev)
	i := len(q.overflow) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !overflowLess(&q.overflow[i], &q.overflow[p]) {
			break
		}
		q.overflow[i], q.overflow[p] = q.overflow[p], q.overflow[i]
		i = p
	}
}

func (q *Queue) overflowPop() farEvent {
	h := q.overflow
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = farEvent{}
	q.overflow = h[:last]
	i, n := 0, last
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && overflowLess(&h[l], &h[small]) {
			small = l
		}
		if r < n && overflowLess(&h[r], &h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}
