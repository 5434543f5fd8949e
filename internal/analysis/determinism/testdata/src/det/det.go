// Package det is the determinism analyzer's golden corpus: each
// flagged construct carries a want comment; the clean patterns below it
// must produce no diagnostics.
//
//simlint:deterministic
package det

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

type state struct {
	counts map[string]int64
	names  []string
	total  int64
}

func (s *state) emit(string) {}

// --- flagged constructs ------------------------------------------------

func wallClock() int64 {
	return time.Now().UnixNano() // want "time.Now in a timing-core package"
}

func globalRand() int {
	return rand.Intn(6) // want "global math/rand source"
}

func spawn(fn func()) {
	go fn() // want "goroutine spawned in a timing-core package"
}

// A spawn inside a function literal is reported like any other.
func spawnViaLiteral() {
	launch := func() {
		go func() {}() // want "goroutine spawned in a timing-core package"
	}
	launch()
}

func (s *state) mutatesThroughPointer() {
	for range s.counts {
		s.total++ // want "loop body mutates non-local state"
	}
}

func (s *state) assignsNonLocal() {
	for k := range s.counts {
		s.names = append(s.names, k) // want "loop body assigns to non-local state"
	}
}

func (s *state) callsOut() {
	for k := range s.counts {
		s.emit(k) // want "loop body calls out"
	}
}

func firstKey(m map[string]int64) string {
	for k := range m {
		return k // want "returns early"
	}
	return ""
}

func pump(m map[string]int64, ch chan string) {
	for k := range m {
		ch <- k // want "sends on a channel"
	}
}

// --- clean patterns (no diagnostics allowed) ---------------------------

func seededRand() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(6)
}

func (s *state) sortedKeys() []string {
	keys := make([]string, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sum(m map[string]int64) int64 {
	var total int64
	for _, v := range m {
		total += v
	}
	return total
}

func clear(m map[string]int64) {
	for k := range m {
		delete(m, k)
	}
}

func copyInto(src map[string]int64) map[string]string {
	dst := make(map[string]string, len(src))
	for k, v := range src {
		dst[k] = fmt.Sprintf("%d", v)
	}
	return dst
}

// A worker pool is a spawn like any other: the timing core admits no
// goroutines, whatever their shape.
func launchWorkers(n int, work func(int)) {
	for w := 0; w < n; w++ {
		w := w
		go work(w)  // want "goroutine spawned in a timing-core package"
		go func() { // want "goroutine spawned in a timing-core package"
			inner := func() { go work(w) } // want "goroutine spawned in a timing-core package"
			inner()
		}()
	}
}
