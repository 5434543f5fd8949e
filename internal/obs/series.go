package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Sampler snapshots every registered instrument of a Registry into an
// append-only, delta-encoded in-memory time series. One sample is a row
// of int64 deltas — the cycle delta followed by one delta per column —
// so a long mostly-steady run compresses into small numbers and the
// whole series lives in one flat slice.
//
// Columns are fixed at construction: every gauge contributes one
// column under its metric name, every histogram contributes
// "<name>.count" and "<name>.sum", all sorted by column name. The
// sorted order makes both the read sweep and the exports
// deterministic.
//
// The sampler only reads instruments; it never schedules clock events
// or otherwise feeds back into the simulation, so a sampled run is
// bit-identical to an unsampled one. Sample is allocation-free after
// the backing array's warm-up (see the noalloc annotation).
type Sampler struct {
	every int64
	names []string
	read  []func() int64

	// vals and prev are the current and previous readings; data holds
	// the delta rows back to back (stride = 1 + len(names)).
	vals []int64
	prev []int64
	data []int64

	n         int
	lastCycle int64
}

// samplerWarmup is the row capacity preallocated at construction; runs
// with more samples grow the backing array geometrically (off the
// noalloc hot path).
const samplerWarmup = 512

// NewSampler builds a sampler over r's instruments with the given
// sampling period in cycles. The column set is frozen at this point, so
// build it after every instrument is registered. A nil registry yields
// a sampler with no columns (still safe to use).
func NewSampler(every int64, r *Registry) *Sampler {
	sp := &Sampler{every: every}
	if r != nil {
		for _, n := range sortedNames(r.gauges) {
			sp.names = append(sp.names, n)
			sp.read = append(sp.read, r.gauges[n])
		}
		for _, n := range sortedNames(r.hists) {
			h := r.hists[n]
			sp.names = append(sp.names, n+".count", n+".sum")
			sp.read = append(sp.read, h.Count, func() int64 { return h.sum })
		}
		// The two groups are each sorted, but the merged column list
		// must be too: sort names and reads together.
		sort.Sort(&columnSort{sp.names, sp.read})
	}
	sp.vals = make([]int64, len(sp.read))
	sp.prev = make([]int64, len(sp.read))
	sp.data = make([]int64, 0, (1+len(sp.read))*samplerWarmup)
	return sp
}

// columnSort sorts column names and their read funcs in lockstep.
type columnSort struct {
	names []string
	read  []func() int64
}

func (c *columnSort) Len() int           { return len(c.names) }
func (c *columnSort) Less(i, j int) bool { return c.names[i] < c.names[j] }
func (c *columnSort) Swap(i, j int) {
	c.names[i], c.names[j] = c.names[j], c.names[i]
	c.read[i], c.read[j] = c.read[j], c.read[i]
}

// Every returns the sampling period in cycles.
func (sp *Sampler) Every() int64 {
	if sp == nil {
		return 0
	}
	return sp.every
}

// Len returns the number of samples taken.
func (sp *Sampler) Len() int {
	if sp == nil {
		return 0
	}
	return sp.n
}

// Sample reads every column and appends one delta row for the given
// cycle. Callers sample at monotonically non-decreasing cycles; the
// simulator's flush-point hook does.
//
//simlint:noalloc
func (sp *Sampler) Sample(cycle int64) {
	for i, f := range sp.read {
		sp.vals[i] = f()
	}
	stride := 1 + len(sp.vals)
	if cap(sp.data)-len(sp.data) < stride {
		//simlint:ignore noalloc grow path, runs once per capacity doubling past the warm-up
		grown := make([]int64, len(sp.data), 2*cap(sp.data)+stride)
		copy(grown, sp.data)
		sp.data = grown
	}
	sp.data = sp.data[:len(sp.data)+stride]
	row := sp.data[len(sp.data)-stride:]
	row[0] = cycle - sp.lastCycle
	for i, v := range sp.vals {
		row[i+1] = v - sp.prev[i]
	}
	copy(sp.prev, sp.vals)
	sp.lastCycle = cycle
	sp.n++
}

// LastCycle returns the cycle of the most recent sample (0 before any).
func (sp *Sampler) LastCycle() int64 {
	if sp == nil {
		return 0
	}
	return sp.lastCycle
}

// View returns an immutable view of the series so far. The view aliases
// the sampler's backing array but only its already-written prefix: rows
// are append-only and never rewritten, so a view taken at the flush
// point stays valid — and race-free — while the sampler keeps
// appending. A nil sampler yields an empty view.
func (sp *Sampler) View() SeriesView {
	if sp == nil {
		return SeriesView{}
	}
	return SeriesView{
		Every: sp.every,
		Names: sp.names,
		Data:  sp.data[:len(sp.data):len(sp.data)],
		N:     sp.n,
	}
}

// Last returns the most recent sample as absolute values — the
// flight-recorder point a StallReport embeds. Cold path; allocates.
func (sp *Sampler) Last() SamplePoint {
	if sp == nil || sp.n == 0 {
		return SamplePoint{}
	}
	p := SamplePoint{Cycle: sp.lastCycle, Values: make(map[string]int64, len(sp.names))}
	for i, n := range sp.names {
		p.Values[n] = sp.prev[i]
	}
	return p
}

// SamplePoint is one sample with absolute values, keyed by column name.
type SamplePoint struct {
	Cycle  int64
	Values map[string]int64
}

// String renders the point's nonzero values in sorted order.
func (p SamplePoint) String() string {
	if p.Values == nil {
		return fmt.Sprintf("sample at cycle %d (empty)", p.Cycle)
	}
	names := sortedNames(p.Values)
	s := fmt.Sprintf("sample at cycle %d:", p.Cycle)
	for _, n := range names {
		if v := p.Values[n]; v != 0 {
			s += fmt.Sprintf(" %s=%d", n, v)
		}
	}
	return s
}

// SeriesView is an immutable snapshot of a sampler's series: the delta
// rows written so far, with stride 1+len(Names) (cycle delta first).
// The zero view is an empty series.
type SeriesView struct {
	Every int64
	Names []string
	Data  []int64
	N     int
}

// Stride returns the row width in int64s.
func (v SeriesView) Stride() int { return 1 + len(v.Names) }

// Row returns sample i's delta row (cycle delta at index 0).
func (v SeriesView) Row(i int) []int64 {
	st := v.Stride()
	return v.Data[i*st : (i+1)*st]
}

// Table decodes the delta rows into an absolute-valued table.
func (v SeriesView) Table() *SeriesTable {
	t := &SeriesTable{
		Every:  v.Every,
		Names:  append([]string(nil), v.Names...),
		Cycles: make([]int64, v.N),
		Cols:   make([][]int64, len(v.Names)),
	}
	for c := range t.Cols {
		t.Cols[c] = make([]int64, v.N)
	}
	var cycle int64
	acc := make([]int64, len(v.Names))
	for i := 0; i < v.N; i++ {
		row := v.Row(i)
		cycle += row[0]
		t.Cycles[i] = cycle
		for c := range acc {
			acc[c] += row[c+1]
			t.Cols[c][i] = acc[c]
		}
	}
	return t
}

// seriesSchema tags the NDJSON header line.
const seriesSchema = "gpues-series/1"

// seriesHeader is the first NDJSON line: schema, sampling period, and
// the column names that give meaning to each row's value vector.
type seriesHeader struct {
	Schema  string   `json:"schema"`
	Every   int64    `json:"every"`
	Columns []string `json:"columns"`
}

// seriesRow is one NDJSON sample: the absolute cycle, the absolute
// column values, and the derived per-interval rates (the interval is
// the span since the previous row, or since cycle 0 for the first).
type seriesRow struct {
	Cycle int64   `json:"cycle"`
	V     []int64 `json:"v"`
	// Derived rates; omitted when the interval spans zero cycles.
	IPC           *float64 `json:"ipc,omitempty"`
	FaultRate     *float64 `json:"fault_rate,omitempty"`
	Occupancy     *int64   `json:"occupancy,omitempty"`
	TopStall      string   `json:"top_stall,omitempty"`
	TopStallShare *float64 `json:"top_stall_share,omitempty"`
}

// WriteNDJSON writes the series as newline-delimited JSON: one header
// line (schema, period, columns) followed by one line per sample with
// absolute values plus derived interval rates. encoding/json keys are
// struct-ordered, so the output is byte-deterministic.
func (v SeriesView) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(seriesHeader{Schema: seriesSchema, Every: v.Every, Columns: v.Names}); err != nil {
		return err
	}
	stats := v.intervals()
	var cycle int64
	acc := make([]int64, len(v.Names))
	vals := make([]int64, len(v.Names))
	occIdx := v.findColumn(ColOccupancy)
	for i := 0; i < v.N; i++ {
		row := v.Row(i)
		cycle += row[0]
		for c := range acc {
			acc[c] += row[c+1]
			vals[c] = acc[c]
		}
		out := seriesRow{Cycle: cycle, V: vals}
		if st := stats[i]; st.Cycles > 0 {
			ipc, fr, share := st.IPC, st.FaultRate, st.TopStallShare
			out.IPC, out.FaultRate = &ipc, &fr
			out.TopStall = st.TopStall
			out.TopStallShare = &share
		}
		if occIdx >= 0 {
			occ := vals[occIdx]
			out.Occupancy = &occ
		}
		if err := enc.Encode(out); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteCSV writes the series as a plain CSV of absolute values:
// a "cycle,<names...>" header and one row per sample.
func (v SeriesView) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("cycle")
	for _, n := range v.Names {
		bw.WriteByte(',')
		bw.WriteString(n)
	}
	bw.WriteByte('\n')
	var cycle int64
	acc := make([]int64, len(v.Names))
	for i := 0; i < v.N; i++ {
		row := v.Row(i)
		cycle += row[0]
		fmt.Fprintf(bw, "%d", cycle)
		for c := range acc {
			acc[c] += row[c+1]
			fmt.Fprintf(bw, ",%d", acc[c])
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// findColumn returns the index of the named column, or -1.
func (v SeriesView) findColumn(name string) int {
	for i, n := range v.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// ReadSeriesNDJSON parses a series written by WriteNDJSON back into an
// absolute-valued table (derived fields are recomputed, not trusted).
func ReadSeriesNDJSON(r io.Reader) (*SeriesTable, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("obs: series stream is empty")
	}
	var hdr seriesHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("obs: series header: %w", err)
	}
	if hdr.Schema != seriesSchema {
		return nil, fmt.Errorf("obs: series schema %q, want %q", hdr.Schema, seriesSchema)
	}
	t := &SeriesTable{Every: hdr.Every, Names: hdr.Columns, Cols: make([][]int64, len(hdr.Columns))}
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var row seriesRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("obs: series row %d: %w", len(t.Cycles)+1, err)
		}
		if len(row.V) != len(t.Names) {
			return nil, fmt.Errorf("obs: series row %d has %d values, want %d",
				len(t.Cycles)+1, len(row.V), len(t.Names))
		}
		t.Cycles = append(t.Cycles, row.Cycle)
		for c, v := range row.V {
			t.Cols[c] = append(t.Cols[c], v)
		}
	}
	return t, sc.Err()
}
