package clock

import (
	"testing"
	"unsafe"
)

func TestEventOrdering(t *testing.T) {
	q := New()
	var order []int
	rec := func(arg int64) { order = append(order, int(arg)) }
	q.At(5, rec, 5)
	q.At(2, rec, 2)
	q.At(2, rec, 20) // same-cycle FIFO
	q.At(9, rec, 9)
	for q.Len() > 0 {
		q.Step()
	}
	want := []int{2, 20, 5, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	q := New()
	fired := int64(-1)
	q.SkipTo(10)
	q.After(5, func(int64) { fired = q.Now() }, 0)
	q.SkipTo(20)
	if fired != 15 {
		t.Errorf("fired at %d, want 15", fired)
	}
}

func TestPastEventsRunNow(t *testing.T) {
	q := New()
	q.SkipTo(100)
	ran := false
	q.At(50, func(int64) { ran = true }, 0)
	q.RunDue()
	if !ran {
		t.Error("past-scheduled event did not run")
	}
}

func TestCascadingSameCycleEvents(t *testing.T) {
	q := New()
	depth := 0
	var recurse Handler
	recurse = func(int64) {
		depth++
		if depth < 5 {
			q.At(q.Now(), recurse, 0)
		}
	}
	q.At(3, recurse, 0)
	q.SkipTo(3)
	if depth != 5 {
		t.Errorf("cascade depth = %d, want 5", depth)
	}
}

func TestNextEvent(t *testing.T) {
	q := New()
	if _, ok := q.NextEvent(); ok {
		t.Error("empty queue reported an event")
	}
	q.At(42, func(int64) {}, 0)
	if c, ok := q.NextEvent(); !ok || c != 42 {
		t.Errorf("NextEvent = %d,%v", c, ok)
	}
}

func TestSkipToNeverGoesBack(t *testing.T) {
	q := New()
	q.SkipTo(10)
	q.SkipTo(5)
	if q.Now() != 10 {
		t.Errorf("Now = %d, want 10", q.Now())
	}
}

// TestMarkSharesNode: marks at one cycle make one node, and a mark at a
// cycle that already holds an event makes none.
func TestMarkSharesNode(t *testing.T) {
	q := New()
	q.Mark(5)
	q.Mark(5)
	if q.Len() != 1 {
		t.Fatalf("two marks at one cycle: Len = %d, want 1", q.Len())
	}
	q.At(7, func(int64) {}, 0)
	q.Mark(7)
	if q.Len() != 2 {
		t.Fatalf("mark on an event's cycle: Len = %d, want 2", q.Len())
	}
}

// TestMarkVisitsWithoutRunning: NextEvent and SkipTo stop at a marked
// cycle, and RunDue runs nothing there.
func TestMarkVisitsWithoutRunning(t *testing.T) {
	q := New()
	ran := false
	q.Mark(10)
	q.At(20, func(int64) { ran = true }, 0)
	if c, ok := q.NextEvent(); !ok || c != 10 {
		t.Fatalf("NextEvent = %d,%v, want the mark at 10", c, ok)
	}
	q.SkipTo(10)
	if q.Now() != 10 || q.Len() != 1 || ran {
		t.Fatalf("after SkipTo(10): Now %d, Len %d, ran %v; want 10, 1, false", q.Now(), q.Len(), ran)
	}
	if c, ok := q.NextEvent(); !ok || c != 20 {
		t.Fatalf("NextEvent = %d,%v, want 20", c, ok)
	}
	q.Mark(q.Now())
	q.RunDue()
	if q.Len() != 1 || ran {
		t.Fatalf("RunDue at a mark: Len %d, ran %v; want 1, false", q.Len(), ran)
	}
}

// TestMarkMigrates: marks past the horizon wait in the overflow heap,
// one node each, and merge when they migrate into the ring.
func TestMarkMigrates(t *testing.T) {
	q := New()
	far := int64(3 * numBuckets)
	q.Mark(far)
	q.Mark(far)
	if q.Len() != 2 || len(q.overflow) != 2 {
		t.Fatalf("two far marks: Len %d, overflow %d; want 2, 2", q.Len(), len(q.overflow))
	}
	q.SkipTo(far - numBuckets + 1)
	if q.Len() != 1 || len(q.overflow) != 0 {
		t.Fatalf("after migration: Len %d, overflow %d; want 1, 0", q.Len(), len(q.overflow))
	}
	q.Mark(far)
	if q.Len() != 1 {
		t.Fatalf("ring mark on a migrated mark: Len %d, want 1", q.Len())
	}
	if c, ok := q.NextEvent(); !ok || c != far {
		t.Fatalf("NextEvent = %d,%v, want %d", c, ok, far)
	}
	q.SkipTo(far)
	if q.Len() != 0 {
		t.Fatalf("Len %d after the marked cycle, want 0", q.Len())
	}
}

// TestMarkOverdue: a mark still pending at a cycle the clock leaves
// moves to the overdue list and frees its bucket for a later cycle.
func TestMarkOverdue(t *testing.T) {
	q := New()
	q.Mark(0)
	q.advance(1)
	if nd := q.overdue.head; nd == nil || nd.fn != nil || q.overdueAt != 0 {
		t.Fatalf("overdue head = %+v, want the mark at 0", nd)
	}
	if q.occupied(0) {
		t.Fatal("bucket 0 still occupied after the clock left cycle 0")
	}
	q.Mark(numBuckets) // bucket 0 again, now inside the horizon
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want the overdue mark and a new one", q.Len())
	}
	q.RunDue()
	if c, ok := q.NextEvent(); q.Len() != 1 || !ok || c != numBuckets {
		t.Fatalf("after RunDue: Len %d, NextEvent %d,%v; want 1, %d", q.Len(), c, ok, numBuckets)
	}
}

// TestRecordSizes pins the size of the records a pending event holds,
// so that growing one is a visible decision: a fault storm keeps about
// 120,000 ring nodes pending at once.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(node{}); n != 24 {
		t.Errorf("ring node is %d bytes, want 24", n)
	}
	if n := unsafe.Sizeof(farEvent{}); n != 32 {
		t.Errorf("overflow event is %d bytes, want 32", n)
	}
}
