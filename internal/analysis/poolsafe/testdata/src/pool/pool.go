// Package pool is the poolsafe analyzer's golden corpus.
package pool

import (
	"sync"

	"gpues/internal/analysis/poolsafe/testdata/src/pool/dep"
	"gpues/internal/clock"
)

type node struct {
	id   int
	next *node
}

type freeList struct{ head *node }

// put returns nd to the free list.
//
//simlint:releases 0
func (q *freeList) put(nd *node) {
	nd.next = q.head
	q.head = nd
}

// release returns the receiver to its pool.
//
//simlint:releases recv
func (nd *node) release() {}

var bufPool sync.Pool

// slab is a generic pool whose release point is a method: a call on an
// instantiation names a different object than the declaration.
type slab[T any] struct{ recs []T }

// take frees index i and returns its record.
//
//simlint:releases 0
func (s *slab[T]) take(i int) T { return s.recs[i] }

// --- flagged constructs ------------------------------------------------

func useAfterPut(q *freeList, nd *node) int {
	q.put(nd)
	return nd.id // want "use of nd after it was released"
}

func walkFreed(q *freeList, nd *node) {
	q.put(nd)
	nd = nd.next // want "use of nd after it was released"
	_ = nd
}

func useAfterRecvRelease(nd *node) {
	nd.release()
	nd.id = 0 // want "use of nd after it was released"
}

func useAfterSyncPoolPut(nd *node) {
	bufPool.Put(nd)
	nd.id++ // want "use of nd after it was released"
}

func useAfterOtherPackageRelease(p *dep.Pool, b *dep.Buf) int {
	p.Release(b)
	return b.N // want "use of b after it was released"
}

func useAfterGenericTake(s *slab[int], i int) int {
	v := s.take(i)
	return v + i // want "use of i after it was released"
}

func useAfterTableTake(tb *clock.Table[node], i int64) int64 {
	nd := tb.Take(i)
	_ = nd
	return i // want "use of i after it was released"
}

func useAfterTableFree(tb *clock.Table[node]) int {
	i, nd := tb.Get()
	tb.Free(i, nd)
	return nd.id // want "use of nd after it was released"
}

// --- clean patterns (no diagnostics allowed) ---------------------------

func copyBeforePut(q *freeList, nd *node) int {
	id := nd.id
	q.put(nd)
	return id
}

func reacquired(q *freeList, nd *node) *node {
	q.put(nd)
	nd = &node{}
	return nd
}

func conditionalPut(q *freeList, nd *node, done bool) int {
	if done {
		q.put(nd)
		return 0
	}
	return nd.id
}

func deferredPut(q *freeList, nd *node) int {
	defer q.put(nd)
	return nd.id
}

func copyBeforeTableFree(tb *clock.Table[node]) int {
	i, nd := tb.Get()
	id := nd.id
	tb.Free(i, nd)
	return id
}
