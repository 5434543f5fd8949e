package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
)

// histBuckets is the number of log2 histogram buckets: bucket 0 holds
// values <= 0, bucket i (i >= 1) holds values in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram records a value distribution in log2 buckets with exact
// count/sum/min/max. Percentiles are bucket-resolution approximations
// (the bucket's upper bound, clamped to the observed max), which keeps
// them deterministic and allocation-free. Observe is nil-receiver safe.
type Histogram struct {
	buckets  [histBuckets]int64
	count    int64
	sum      int64
	min, max int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// quantile returns the approximate q-quantile (0 < q <= 1): the upper
// bound of the bucket holding the q*count-th observation, clamped to
// [min, max].
func (h *Histogram) quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(q * float64(h.count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i]
		if cum >= rank {
			var ub int64
			if i > 0 {
				ub = 1 << uint(i)
			}
			if ub > h.max {
				ub = h.max
			}
			if ub < h.min {
				ub = h.min
			}
			return ub
		}
	}
	return h.max
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil || h.count == 0 {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Count: h.count,
		Sum:   h.sum,
		Min:   h.min,
		Max:   h.max,
		Mean:  float64(h.sum) / float64(h.count),
		P50:   h.quantile(0.50),
		P90:   h.quantile(0.90),
		P99:   h.quantile(0.99),
	}
}

// Registry holds the named instruments of one simulation. Registration
// happens at wiring time; the hot path touches only the returned
// instrument pointers. Single-threaded, like the simulation.
type Registry struct {
	//simlint:ckptskip gauge closures, fixed at registration; SaveState digests their readings
	gauges map[string]func() int64
	hists  map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		gauges: make(map[string]func() int64),
		hists:  make(map[string]*Histogram),
	}
}

// Gauge registers a read-at-snapshot value source under name.
// Re-registering replaces the source.
func (r *Registry) Gauge(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.gauges[name] = fn
}

// Histogram registers (or returns the existing) histogram under name.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// Snapshot is a point-in-time copy of every registered instrument,
// exportable as JSON or CSV and embedded in sim.Result. A Registry
// fills Gauges and Histograms. Counters carries monotonic counts a
// producer keeps itself, such as the job fabric's queue counters;
// /metrics types them as Prometheus counters.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot reads every instrument. A nil registry yields a zero
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	// Sorted names keep the reads deterministic: gauge callbacks run in
	// a fixed order, so a callback with side effects (or one that reads
	// state another callback touches) cannot vary between runs.
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for _, n := range sortedNames(r.gauges) {
			s.Gauges[n] = r.gauges[n]()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for _, n := range sortedNames(r.hists) {
			s.Histograms[n] = r.hists[n].Snapshot()
		}
	}
	return s
}

// sortedNames returns the map's keys in sorted order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteJSON writes the snapshot as indented JSON. encoding/json sorts
// map keys, so the output is byte-deterministic.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV writes the snapshot as sorted name,value rows (histograms
// expand into .count/.sum/.min/.max/.mean/.p50/.p90/.p99 rows), so two
// snapshots diff line by line.
func (s Snapshot) WriteCSV(w io.Writer) error {
	type row struct {
		name  string
		value string
	}
	var rows []row
	for n, v := range s.Counters {
		rows = append(rows, row{n, fmt.Sprintf("%d", v)})
	}
	for n, v := range s.Gauges {
		rows = append(rows, row{n, fmt.Sprintf("%d", v)})
	}
	for n, h := range s.Histograms {
		rows = append(rows,
			row{n + ".count", fmt.Sprintf("%d", h.Count)},
			row{n + ".sum", fmt.Sprintf("%d", h.Sum)},
			row{n + ".min", fmt.Sprintf("%d", h.Min)},
			row{n + ".max", fmt.Sprintf("%d", h.Max)},
			row{n + ".mean", fmt.Sprintf("%g", h.Mean)},
			row{n + ".p50", fmt.Sprintf("%d", h.P50)},
			row{n + ".p90", fmt.Sprintf("%d", h.P90)},
			row{n + ".p99", fmt.Sprintf("%d", h.P99)},
		)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	if _, err := io.WriteString(w, "metric,value\n"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s\n", r.name, r.value); err != nil {
			return err
		}
	}
	return nil
}
