package clock

// Table parks the records pending events need under int64 indices, for
// payloads that do not fit an event's own: a component puts a record,
// schedules its handler with the index as payload, and takes the record
// back when the handler fires. Freed indices are reused, so a warm
// table hands out indices without allocating. The zero value is empty
// and ready to use.
type Table[T any] struct {
	recs []T
	free []int64
}

// Put stores v and returns its index.
//
//simlint:noalloc
func (t *Table[T]) Put(v T) int64 {
	if n := len(t.free); n > 0 {
		i := t.free[n-1]
		t.free = t.free[:n-1]
		t.recs[i] = v
		return i
	}
	t.recs = append(t.recs, v)
	return int64(len(t.recs) - 1)
}

// Take returns the record at index i and frees the index: the next Put
// may reuse it.
//
//simlint:releases 0
//simlint:noalloc
func (t *Table[T]) Take(i int64) T {
	v := t.recs[i]
	var zero T
	t.recs[i] = zero
	t.free = append(t.free, i)
	return v
}

// FIFO is a queue of records waiting on a resource, such as callers
// refused for want of an MSHR. It drains from a head index and rewinds
// to the start of its backing array whenever it empties, so a queue
// that keeps refilling reuses one array instead of dropping capacity
// off its front. The zero value is empty and ready to use.
type FIFO[T any] struct {
	recs []T
	head int
}

// Push appends v at the tail. A full backing array with drained slots
// at its front is compacted instead of grown.
//
//simlint:noalloc
func (f *FIFO[T]) Push(v T) {
	if len(f.recs) == cap(f.recs) && f.head > 0 {
		n := copy(f.recs, f.recs[f.head:])
		clear(f.recs[n:])
		f.recs, f.head = f.recs[:n], 0
	}
	f.recs = append(f.recs, v)
}

// Len returns the number of queued records.
func (f *FIFO[T]) Len() int { return len(f.recs) - f.head }

// Pop removes and returns the record at the head; the queue must not
// be empty. A record pushed while the popped one is being handled
// queues behind every record already waiting.
//
//simlint:noalloc
func (f *FIFO[T]) Pop() T {
	v := f.recs[f.head]
	var zero T
	f.recs[f.head] = zero
	f.head++
	if f.head == len(f.recs) {
		f.recs, f.head = f.recs[:0], 0
	}
	return v
}

// Each calls fn on every queued record, head first.
func (f *FIFO[T]) Each(fn func(*T)) {
	for i := f.head; i < len(f.recs); i++ {
		fn(&f.recs[i])
	}
}

// Clients holds the handlers of a component that parks waiters for
// several clients. A parked waiter is one int64: the client's index in
// its top ClientBits bits and the client's own payload below them, so
// it costs 8 bytes and no handler. A client registers its handler once
// with Add and passes Add's tag ORed with a payload in [0, 2^48). The
// zero value has no clients.
type Clients[F any] struct {
	fns []F
}

// ClientBits is how many high bits of a waiter name its client.
const ClientBits = 16

const payloadBits = 64 - ClientBits

// Add registers a client's handler and returns the client's tag.
func (c *Clients[F]) Add(fn F) int64 {
	if len(c.fns) == 1<<ClientBits {
		panic("clock: too many clients")
	}
	c.fns = append(c.fns, fn)
	return int64(uint64(len(c.fns)-1) << payloadBits)
}

// Get returns the handler of the client waiter w names, and its payload.
//
//simlint:noalloc
func (c *Clients[F]) Get(w int64) (F, int64) {
	return c.fns[uint64(w)>>payloadBits], w & (1<<payloadBits - 1)
}
