// Package dep declares a release point in another package than its
// callers, for the poolsafe corpus.
package dep

// Buf is a pooled buffer.
type Buf struct{ N int }

// Pool recycles buffers.
type Pool struct{ free []*Buf }

// Release hands b back to the pool.
//
//simlint:releases 0
func (p *Pool) Release(b *Buf) { p.free = append(p.free, b) }
