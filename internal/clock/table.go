package clock

// Table pools the records pending events name: a component gets a
// record and its index, schedules a handler with the index as payload,
// finds the record again with At when the handler fires, and frees it
// once no event names it any more. Freed indices are reused, most
// recently freed first.
//
// Records live in chunks that are never moved, so a record keeps its
// address for the life of the table and may be pointed to while it is
// live. Get hands a freed record back as its last owner left it: its
// slices keep their capacity, and the caller resets what it uses. A
// warm table therefore gets and frees records without allocating. Put
// and Take park value records, which carry no capacity worth keeping,
// under an index. The zero value is empty and ready to use.
type Table[T any] struct {
	chunks []*[chunkLen]T // record i is chunks[i/chunkLen][i%chunkLen]
	n      int64          // records ever built: indices [0, n)
	free   []int64        // freed indices, the next to reuse last
}

// chunkLen is how many records a table allocates at once. A table holds
// at most chunkLen-1 records it never used, so many small tables stay
// small.
const chunkLen = 32

// Get returns a record and its index: the last one freed, or a new
// zero record.
//
//simlint:noalloc
func (t *Table[T]) Get() (int64, *T) {
	if k := len(t.free); k > 0 {
		i := t.free[k-1]
		t.free = t.free[:k-1]
		return i, t.At(i)
	}
	i := t.n
	if i%chunkLen == 0 {
		//simlint:ignore noalloc grow path, one chunk per chunkLen records the table ever holds at once
		t.chunks = append(t.chunks, new([chunkLen]T))
	}
	t.n++
	return i, t.At(i)
}

// At returns the record at index i.
//
//simlint:noalloc
func (t *Table[T]) At(i int64) *T { return &t.chunks[uint64(i)/chunkLen][uint64(i)%chunkLen] }

// Free returns rec, the record at index i, to the table. Nothing may
// name it afterwards: the next Get may hand it to a new owner. It
// panics when rec is not the record at i.
//
//simlint:releases 1
//simlint:noalloc
func (t *Table[T]) Free(i int64, rec *T) {
	if t.At(i) != rec {
		//simlint:ignore noalloc a constant message, on a caller's broken invariant only
		panic("clock: Table.Free of a record under another index")
	}
	t.free = append(t.free, i)
}

// Put stores v and returns its index.
//
//simlint:noalloc
func (t *Table[T]) Put(v T) int64 {
	i, rec := t.Get()
	*rec = v
	return i
}

// Take returns the record at index i, clears it and frees the index:
// the next Put may reuse it.
//
//simlint:releases 0
//simlint:noalloc
func (t *Table[T]) Take(i int64) T {
	rec := t.At(i)
	v := *rec
	var zero T
	*rec = zero
	t.free = append(t.free, i)
	return v
}

// EachFree calls fn on every freed record, the next Get's first.
func (t *Table[T]) EachFree(fn func(*T)) {
	for k := len(t.free) - 1; k >= 0; k-- {
		fn(t.At(t.free[k]))
	}
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
