package clock

import (
	"container/heap"
	"math/rand"
	"testing"
)

// heapQueue is the previous container/heap implementation, kept as the
// reference model for the differential test: the calendar queue must
// order events exactly the way the heap did — earliest cycle first,
// FIFO among same-cycle events. A mark is an event with a nil handler,
// which is what a mark replaced: an empty callback.

type refEvent struct {
	cycle int64
	seq   uint64
	fn    Handler
	arg   int64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

type heapQueue struct {
	now    int64
	seq    uint64
	events refHeap
}

func (q *heapQueue) Now() int64 { return q.now }
func (q *heapQueue) Len() int   { return len(q.events) }

func (q *heapQueue) At(cycle int64, fn Handler, arg int64) {
	if cycle < q.now {
		cycle = q.now
	}
	q.seq++
	heap.Push(&q.events, refEvent{cycle: cycle, seq: q.seq, fn: fn, arg: arg})
}

func (q *heapQueue) After(delay int64, fn Handler, arg int64) { q.At(q.now+delay, fn, arg) }

func (q *heapQueue) Mark(cycle int64) { q.At(cycle, nil, 0) }

// lenBounds bounds the calendar queue's Len for the same population:
// every mark may hold a node of its own, but a marked cycle needs at
// least one node, and none besides a callback event at that cycle.
func (q *heapQueue) lenBounds() (lo, hi int) {
	marked := map[int64]bool{}
	for _, e := range q.events {
		if e.fn != nil {
			lo++
			marked[e.cycle] = false
		} else if _, seen := marked[e.cycle]; !seen {
			marked[e.cycle] = true
		}
	}
	for _, m := range marked {
		if m {
			lo++
		}
	}
	return lo, len(q.events)
}

func (q *heapQueue) RunDue() {
	for len(q.events) > 0 && q.events[0].cycle <= q.now {
		e := heap.Pop(&q.events).(refEvent)
		if e.fn != nil {
			e.fn(e.arg)
		}
	}
}

func (q *heapQueue) Step() {
	q.now++
	q.RunDue()
}

func (q *heapQueue) NextEvent() (int64, bool) {
	if len(q.events) == 0 {
		return 0, false
	}
	return q.events[0].cycle, true
}

func (q *heapQueue) SkipTo(cycle int64) {
	for len(q.events) > 0 && q.events[0].cycle <= cycle {
		if c := q.events[0].cycle; c > q.now {
			q.now = c
		}
		e := heap.Pop(&q.events).(refEvent)
		if e.fn != nil {
			e.fn(e.arg)
		}
	}
	if cycle > q.now {
		q.now = cycle
	}
}

// TestSameCycleFIFOAcrossHorizon schedules interleaved events at the
// same cycle through both the ring path (near) and the overflow path
// (far) and checks they fire in scheduling order — the case the
// overflow migration must get right.
func TestSameCycleFIFOAcrossHorizon(t *testing.T) {
	q := New()
	far := int64(3 * numBuckets)
	var order []int64
	rec := func(arg int64) { order = append(order, arg) }
	q.At(far, rec, 0) // overflow path
	q.SkipTo(far - numBuckets/2)
	q.At(far, rec, 1) // ring path, after migration
	q.At(far, rec, 2)
	q.SkipTo(far)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("same-cycle order across horizon = %v, want [0 1 2]", order)
	}
}

// TestPastSchedulingClamp checks that events scheduled in the past run
// at the current cycle, in scheduling order relative to current-cycle
// events.
func TestPastSchedulingClamp(t *testing.T) {
	q := New()
	q.SkipTo(50)
	var order []int64
	rec := func(arg int64) { order = append(order, arg) }
	q.At(50, rec, 1)
	q.At(10, rec, 2) // clamps to 50, after 1
	q.At(-5, rec, 3)
	q.RunDue()
	if q.Now() != 50 {
		t.Fatalf("Now = %d, want 50", q.Now())
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("clamped order = %v, want [1 2 3]", order)
	}
}

// TestSkipToCallbackObservesNow checks that every handler run during a
// SkipTo observes its own scheduled cycle as Now, including handlers
// that migrate out of the overflow heap mid-skip.
func TestSkipToCallbackObservesNow(t *testing.T) {
	q := New()
	cycles := []int64{3, numBuckets - 1, numBuckets + 7, 5 * numBuckets}
	seen := map[int64]int64{}
	for _, c := range cycles {
		q.At(c, func(arg int64) { seen[arg] = q.Now() }, c)
	}
	q.SkipTo(10 * numBuckets)
	for _, c := range cycles {
		if seen[c] != c {
			t.Errorf("callback at %d observed Now=%d", c, seen[c])
		}
	}
	if q.Now() != 10*numBuckets {
		t.Errorf("final Now = %d, want %d", q.Now(), int64(10*numBuckets))
	}
}

// diffQueue is what the differential test drives on both queues.
type diffQueue interface {
	After(delay int64, fn Handler, arg int64)
	Mark(cycle int64)
	Now() int64
}

// diffPlan is what one event of the differential test does when it
// fires, looked up by its payload.
type diffPlan struct {
	resched, mark bool
	next          int64
}

// diffHandlers builds one queue's two handlers, once: fire logs its
// payload and the cycle, then follows the payload's plan (schedule the
// refire arm, mark a cycle); refire logs the negated payload. A handler
// that received another event's payload, or ran out of (cycle, seq)
// order, leaves a log that differs from the reference's.
func diffHandlers(q diffQueue, plans *[]diffPlan, log *[]int64) (fire Handler) {
	refire := func(arg int64) { *log = append(*log, -arg, q.Now()) }
	return func(arg int64) {
		*log = append(*log, arg, q.Now())
		p := (*plans)[arg]
		if p.resched {
			q.After(p.next, refire, arg)
		}
		if p.mark {
			q.Mark(q.Now() + p.next)
		}
	}
}

// TestDifferentialVsHeap drives the calendar queue and the old heap
// implementation with an identical randomized operation stream —
// including handlers that schedule more work or mark cycles, delays
// straddling the horizon, marks (merged or not) and mixed Step/SkipTo
// advancement — and requires the exact same firing sequence (handler,
// payload and cycle of every event), clock positions and next event,
// and a Len within the reference's bounds.
func TestDifferentialVsHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))

		newQ := New()
		oldQ := &heapQueue{}
		var newLog, oldLog []int64
		plans := []diffPlan{{}} // indexed by payload; payload 0 is unused
		newFire := diffHandlers(newQ, &plans, &newLog)
		oldFire := diffHandlers(oldQ, &plans, &oldLog)

		// schedule installs the same event, payload and plan on both
		// queues.
		schedule := func(delay int64) {
			id := int64(len(plans))
			plans = append(plans, diffPlan{
				resched: rng.Intn(4) == 0,
				mark:    rng.Intn(4) == 0,
				next:    int64(rng.Intn(3 * numBuckets)),
			})
			newQ.After(delay, newFire, id)
			oldQ.After(delay, oldFire, id)
		}
		// delay mixes near-future, horizon-edge and far-future delays.
		delay := func() int64 {
			d := int64(rng.Intn(8))
			if rng.Intn(3) == 0 {
				d = int64(numBuckets - 4 + rng.Intn(8))
			}
			if rng.Intn(5) == 0 {
				d = int64(rng.Intn(4 * numBuckets))
			}
			return d
		}

		for op := 0; op < 400; op++ {
			switch rng.Intn(6) {
			case 0, 1:
				schedule(delay())
			case 5:
				c := newQ.Now() + delay()
				newQ.Mark(c)
				oldQ.Mark(c)
			case 2:
				newQ.Step()
				oldQ.Step()
			case 3:
				d := int64(rng.Intn(2 * numBuckets))
				newQ.SkipTo(newQ.Now() + d)
				oldQ.SkipTo(oldQ.Now() + d)
			case 4:
				newQ.RunDue()
				oldQ.RunDue()
			}
			if newQ.Now() != oldQ.Now() {
				t.Fatalf("seed %d op %d: Now diverged: %d vs %d", seed, op, newQ.Now(), oldQ.Now())
			}
			if lo, hi := oldQ.lenBounds(); newQ.Len() < lo || newQ.Len() > hi {
				t.Fatalf("seed %d op %d: Len %d outside [%d,%d]", seed, op, newQ.Len(), lo, hi)
			}
			nc, nok := newQ.NextEvent()
			oc, ook := oldQ.NextEvent()
			if nok != ook || (nok && nc != oc) {
				t.Fatalf("seed %d op %d: NextEvent diverged: %d,%v vs %d,%v", seed, op, nc, nok, oc, ook)
			}
		}
		// Drain everything.
		newQ.SkipTo(newQ.Now() + 10*numBuckets)
		oldQ.SkipTo(oldQ.Now() + 10*numBuckets)

		if newQ.Len() != 0 || oldQ.Len() != 0 {
			t.Fatalf("seed %d: Len %d and %d after the drain", seed, newQ.Len(), oldQ.Len())
		}
		if len(newLog) != len(oldLog) {
			t.Fatalf("seed %d: fired %d entries vs %d", seed, len(newLog)/2, len(oldLog)/2)
		}
		for i := range newLog {
			if newLog[i] != oldLog[i] {
				t.Fatalf("seed %d: firing log diverged at %d: %d vs %d", seed, i, newLog[i], oldLog[i])
			}
		}
	}
}

// TestZeroAllocSteadyState asserts the allocation-free guarantee of the
// hot path: once the node free list is warm, After + Step performs no
// heap allocations.
func TestZeroAllocSteadyState(t *testing.T) {
	q := New()
	sum := int64(0)
	fn := func(arg int64) { sum += arg }
	// Warm the free list.
	for i := 0; i < 64; i++ {
		q.After(1, fn, 1)
		q.After(3, fn, 3)
	}
	q.SkipTo(q.Now() + 8)

	allocs := testing.AllocsPerRun(1000, func() {
		q.After(1, fn, 1)
		q.After(2, fn, 2)
		q.After(5, fn, 5)
		q.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state After+Step allocates %v times per run, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(1000, func() {
		q.Mark(q.Now() + 1)
		q.Mark(q.Now() + 1)
		q.Mark(q.Now() + 4)
		q.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Mark+Step allocates %v times per run, want 0", allocs)
	}
}

// TestSlabGrowth: the free list grows one slab at a time, so scheduling
// slabNodes events past the high-water mark allocates once.
func TestSlabGrowth(t *testing.T) {
	q := New()
	fn := func(int64) {}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < slabNodes; i++ {
			q.After(int64(i)+1, fn, 0)
		}
	})
	if allocs != 1 {
		t.Fatalf("%d events past the high-water mark allocate %v times, want 1", slabNodes, allocs)
	}
	if q.Len() != 2*slabNodes {
		t.Fatalf("Len = %d, want %d", q.Len(), 2*slabNodes)
	}
}

// TestOverflowStress pushes thousands of far-future events with random
// cycles and checks they all fire, in order, with correct Now.
func TestOverflowStress(t *testing.T) {
	q := New()
	rng := rand.New(rand.NewSource(7))
	var fired []int64
	const n = 5000
	for i := 0; i < n; i++ {
		c := int64(rng.Intn(20 * numBuckets))
		q.At(c, func(int64) { fired = append(fired, q.Now()) }, 0)
	}
	q.SkipTo(25 * numBuckets)
	if len(fired) != n {
		t.Fatalf("fired %d of %d", len(fired), n)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out-of-order firing: %d after %d", fired[i], fired[i-1])
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}
