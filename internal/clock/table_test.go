package clock

import "testing"

// TestTableReusesIndices: a taken index is handed out again, Take
// clears its record, and a warm table stores without allocating.
func TestTableReusesIndices(t *testing.T) {
	var tb Table[string]
	a, b := tb.Put("a"), tb.Put("b")
	if a == b {
		t.Fatalf("Put returned %d twice", a)
	}
	if got := tb.Take(a); got != "a" {
		t.Fatalf("Take(%d) = %q, want \"a\"", a, got)
	}
	if c := tb.Put("c"); c != a {
		t.Fatalf("Put after Take returned %d, want the freed %d", c, a)
	}
	if got := tb.Take(b); got != "b" {
		t.Fatalf("Take(%d) = %q, want \"b\"", b, got)
	}
	if got := *tb.At(b); got != "" {
		t.Fatalf("record %d holds %q after Take, want it cleared", b, got)
	}
	allocs := testing.AllocsPerRun(100, func() { tb.Take(tb.Put("d")) })
	if allocs != 0 {
		t.Fatalf("warm Put+Take allocates %v times, want 0", allocs)
	}
}

// TestTableRecordsStay: records keep their address and contents as the
// table grows through many chunks, and each index finds its own record.
func TestTableRecordsStay(t *testing.T) {
	var tb Table[[2]int64]
	const n = 1000 // past the first chunk many times over
	recs := make([]*[2]int64, n)
	for k := range recs {
		i, rec := tb.Get()
		if i != int64(k) {
			t.Fatalf("Get %d on a fresh table returned index %d", k, i)
		}
		*rec = [2]int64{i, -i}
		recs[k] = rec
	}
	for k, rec := range recs {
		if got := tb.At(int64(k)); got != rec {
			t.Fatalf("At(%d) moved from %p to %p", k, rec, got)
		}
		if *rec != [2]int64{int64(k), -int64(k)} {
			t.Fatalf("record %d holds %v", k, *rec)
		}
	}
}

// TestTableGetKeepsCapacity: a freed record comes back from Get as it
// was left, its slice's backing array included, most recently freed
// first.
func TestTableGetKeepsCapacity(t *testing.T) {
	type rec struct{ waiters []int64 }
	var tb Table[rec]
	a, ra := tb.Get()
	b, rb := tb.Get()
	ra.waiters = append(make([]int64, 0, 16), 1, 2, 3)
	arr := &ra.waiters[:1][0]
	tb.Free(b, rb)
	tb.Free(a, ra)
	i, r := tb.Get()
	if i != a || r != ra {
		t.Fatalf("Get returned index %d, want the last freed %d", i, a)
	}
	if cap(r.waiters) != 16 || &r.waiters[:1][0] != arr {
		t.Fatalf("reused record's waiters have capacity %d in a new array, want 16 in the old one", cap(r.waiters))
	}
	if i, _ := tb.Get(); i != b {
		t.Fatalf("second Get returned index %d, want %d", i, b)
	}
	var seen int
	tb.EachFree(func(*rec) { seen++ })
	if seen != 0 {
		t.Fatalf("%d free records after both were taken back, want 0", seen)
	}
}

// TestTableWarmGetFree: once a table has held its peak, getting and
// freeing records allocates nothing.
func TestTableWarmGetFree(t *testing.T) {
	type rec struct{ waiters []int64 }
	var tb Table[rec]
	var idx [40]int64
	var recs [40]*rec
	cycle := func() {
		for k := range idx {
			idx[k], recs[k] = tb.Get()
			recs[k].waiters = append(recs[k].waiters[:0], int64(k))
		}
		for k := range idx {
			tb.Free(idx[k], recs[k])
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm Get+Free allocates %v times, want 0", allocs)
	}
}

// TestTableFreeChecksIndex: freeing a record under another record's
// index panics instead of corrupting the free list.
func TestTableFreeChecksIndex(t *testing.T) {
	var tb Table[int]
	a, _ := tb.Get()
	_, rb := tb.Get()
	defer func() {
		if recover() == nil {
			t.Fatal("Free of record b under index a did not panic")
		}
	}()
	tb.Free(a, rb)
}

// TestFIFOReentrantOrder: a record pushed while the queue drains lands
// behind every record already queued.
func TestFIFOReentrantOrder(t *testing.T) {
	var f FIFO[int]
	f.Push(1)
	f.Push(2)
	var got []int
	for f.Len() > 0 {
		v := f.Pop()
		got = append(got, v)
		if v == 1 {
			f.Push(3)
		}
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("drained %v, want [1 2 3]", got)
	}
}

// TestFIFOKeepsBackingArray: a queue that keeps refilling and draining,
// or that never quite empties, reuses one backing array.
func TestFIFOKeepsBackingArray(t *testing.T) {
	var f FIFO[int]
	for i := 0; i < 4; i++ {
		f.Push(i)
	}
	base := &f.recs[:1][0]
	for round := 0; round < 100; round++ {
		for f.Len() > 1 {
			f.Pop()
		}
		for f.Len() < 4 {
			f.Push(round)
		}
		if &f.recs[:1][0] != base {
			t.Fatalf("round %d: backing array moved", round)
		}
	}
	for f.Len() > 0 {
		f.Pop()
	}
	if len(f.recs) != 0 || f.head != 0 {
		t.Fatalf("emptied queue at len %d head %d, want it rewound", len(f.recs), f.head)
	}
}

// TestClientsRoute: a waiter reaches the handler of the client whose
// tag it carries, with its payload intact, for every client index the
// tag can hold.
func TestClientsRoute(t *testing.T) {
	var c Clients[Handler]
	var got [2]int64
	tags := make([]int64, 1<<ClientBits)
	for i := range tags {
		tags[i] = c.Add(func(arg int64) { got = [2]int64{int64(i), arg} })
	}
	const payload = 1<<(64-ClientBits) - 1
	for _, i := range []int{0, 1, 1<<(ClientBits-1) - 1, 1 << (ClientBits - 1), 1<<ClientBits - 1} {
		for _, arg := range []int64{0, 42, payload} {
			fn, a := c.Get(tags[i] | arg)
			fn(a)
			if got != [2]int64{int64(i), arg} {
				t.Fatalf("waiter of client %d, payload %#x, reached client %d with %#x", i, arg, got[0], got[1])
			}
		}
	}
}
