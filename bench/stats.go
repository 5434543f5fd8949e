package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method, matching Python's statistics.quantiles(xs,
// n=4), so spreads computed here and by a Python reader agree. With one
// sample all three are that sample.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// percentileLadder is the set of percentiles a tail is reported at,
// above the median.
var percentileLadder = []float64{99, 90, 75}

// tailAllowed is the percentile rule: a percentile is reported only
// when at least ten samples lie beyond it, so p90 needs 100 samples
// and p99 needs 1000.
func tailAllowed(n int, p float64) bool {
	return float64(n)*(1-p/100) >= 10-1e-9
}

// tail returns the value at percentile want when the rule allows it,
// and otherwise at the highest ladder percentile below want that it
// allows; the percentile actually used is returned with it. When none
// qualifies (under 40 samples) it returns the median as p50.
func tail(xs []float64, want float64) (value, pct float64) {
	for _, p := range percentileLadder {
		if p <= want && tailAllowed(len(xs), p) {
			return percentile(xs, p), p
		}
	}
	return median(xs), 50
}

// percentile returns the nearest-rank percentile p of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// overhead returns the tracing overhead: the fastest traced repeats
// over the fastest untraced ones, minus 1, over the operations that
// have both, and how many those are.
func overhead(traced, untraced [][]time.Duration) (float64, int) {
	var t, u float64
	n := 0
	for i := range traced {
		if len(traced[i]) > 0 && len(untraced[i]) > 0 {
			t += slices.Min(seconds(traced[i]))
			u += slices.Min(seconds(untraced[i]))
			n++
		}
	}
	return ratio(t, u) - 1, n
}

// geomean returns the geometric mean of the positive values of xs.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// perOpBest reduces each operation's repeats to the fastest, in
// seconds. The operations are deterministic single-threaded
// computations, and host contention only ever adds to their time. On
// the 2-core host, over 50 s windows of a 900 s faults run, the
// window-to-window spread (IQR/median) was 0.074 for summed per-job
// minima and 0.173 for summed per-job medians.
func perOpBest(samples [][]time.Duration) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if len(s) > 0 {
			out = append(out, slices.Min(seconds(s)))
		}
	}
	return out
}
