package clock

import "testing"

// TestTableReusesIndices: a taken index is handed out again, and a
// warm table stores without allocating.
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
	allocs := testing.AllocsPerRun(100, func() { tb.Take(tb.Put("d")) })
	if allocs != 0 {
		t.Fatalf("warm Put+Take allocates %v times, want 0", allocs)
	}
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
