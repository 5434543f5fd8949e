package obs

import (
	"bytes"
	"strings"
	"testing"
)

// gaugeVar registers a gauge over a fresh variable, the way a
// component exposes a count it keeps, and returns the variable.
func gaugeVar(r *Registry, name string) *int64 {
	v := new(int64)
	r.Gauge(name, func() int64 { return *v })
	return v
}

// seriesRegistry builds a small registry with one of each instrument
// kind, returning the mutable handles.
func seriesRegistry() (*Registry, *int64, *int64, *Histogram) {
	r := NewRegistry()
	c := gaugeVar(r, "sm.committed")
	g := gaugeVar(r, "sm.occupancy_blocks")
	h := r.Histogram("fault.latency_cycles")
	return r, c, g, h
}

func TestSamplerColumnsSorted(t *testing.T) {
	r := NewRegistry()
	r.Gauge("zeta", func() int64 { return 0 })
	r.Gauge("alpha", func() int64 { return 0 })
	r.Histogram("mid")
	sp := NewSampler(100, r)
	want := []string{"alpha", "mid.count", "mid.sum", "zeta"}
	if len(sp.names) != len(want) {
		t.Fatalf("columns = %v, want %v", sp.names, want)
	}
	for i := range want {
		if sp.names[i] != want[i] {
			t.Fatalf("columns = %v, want %v", sp.names, want)
		}
	}
}

func TestSamplerDeltaRoundTrip(t *testing.T) {
	r, c, g, h := seriesRegistry()
	sp := NewSampler(1000, r)

	*c += 10
	*g = 4
	h.Observe(100)
	sp.Sample(1000)

	*c += 5
	*g = 2
	h.Observe(300)
	h.Observe(50)
	sp.Sample(2000)

	sp.Sample(5000) // idle interval: all deltas zero but the clock

	tab := sp.View().Table()
	if tab.Len() != 3 {
		t.Fatalf("table has %d rows, want 3", tab.Len())
	}
	wantCycles := []int64{1000, 2000, 5000}
	for i, w := range wantCycles {
		if tab.Cycles[i] != w {
			t.Fatalf("cycles = %v, want %v", tab.Cycles, wantCycles)
		}
	}
	check := func(col string, want []int64) {
		t.Helper()
		got := tab.Col(col)
		if got == nil {
			t.Fatalf("missing column %q (have %v)", col, tab.Names)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", col, got, want)
			}
		}
	}
	check("sm.committed", []int64{10, 15, 15})
	check("sm.occupancy_blocks", []int64{4, 2, 2})
	check("fault.latency_cycles.count", []int64{1, 3, 3})
	check("fault.latency_cycles.sum", []int64{100, 450, 450})
}

func TestSampleHotPathDoesNotAllocate(t *testing.T) {
	r, c, g, h := seriesRegistry()
	sp := NewSampler(10, r)
	cycle := int64(0)
	allocs := testing.AllocsPerRun(samplerWarmup-8, func() {
		cycle += 10
		*c += 3
		*g++
		h.Observe(cycle)
		sp.Sample(cycle)
	})
	if allocs != 0 {
		t.Fatalf("Sample allocated %.1f times per call within warm-up capacity", allocs)
	}
}

func TestSamplerGrowsPastWarmup(t *testing.T) {
	r, c, _, _ := seriesRegistry()
	sp := NewSampler(1, r)
	n := samplerWarmup*3 + 7
	for i := 1; i <= n; i++ {
		*c += 1
		sp.Sample(int64(i))
	}
	if sp.Len() != n {
		t.Fatalf("Len = %d, want %d", sp.Len(), n)
	}
	tab := sp.View().Table()
	col := tab.Col("sm.committed")
	if col[n-1] != int64(n) {
		t.Fatalf("final committed = %d, want %d", col[n-1], n)
	}
}

func TestSeriesViewIsStableUnderAppend(t *testing.T) {
	r, c, _, _ := seriesRegistry()
	sp := NewSampler(10, r)
	*c += 7
	sp.Sample(10)
	view := sp.View()
	// Keep sampling past the view; the view must not change, even
	// across a grow of the backing array.
	for i := 2; i <= samplerWarmup+4; i++ {
		*c += 1
		sp.Sample(int64(i * 10))
	}
	if view.N != 1 {
		t.Fatalf("view.N = %d, want 1", view.N)
	}
	if got := view.Table().Col("sm.committed")[0]; got != 7 {
		t.Fatalf("view committed = %d, want 7", got)
	}
}

func TestSeriesNDJSONRoundTripAndDeterminism(t *testing.T) {
	build := func() SeriesView {
		r, c, g, h := seriesRegistry()
		r2 := gaugeVar(r, "faultunit.raised")
		sp := NewSampler(500, r)
		for i := 1; i <= 4; i++ {
			*c += int64(100 * i)
			*g = int64(i)
			if i%2 == 0 {
				*r2 += 3
				h.Observe(int64(40 * i))
			}
			sp.Sample(int64(500 * i))
		}
		return sp.View()
	}
	var a, b bytes.Buffer
	if err := build().WriteNDJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical series exported different NDJSON bytes")
	}
	if !strings.Contains(a.String(), seriesSchema) {
		t.Fatalf("export missing schema tag:\n%s", a.String())
	}

	tab, err := ReadSeriesNDJSON(&a)
	if err != nil {
		t.Fatal(err)
	}
	want := build().Table()
	if tab.Len() != want.Len() || len(tab.Names) != len(want.Names) {
		t.Fatalf("round trip shape %dx%d, want %dx%d", tab.Len(), len(tab.Names), want.Len(), len(want.Names))
	}
	for i := range want.Names {
		if tab.Names[i] != want.Names[i] {
			t.Fatalf("round trip names %v, want %v", tab.Names, want.Names)
		}
		for j := 0; j < want.Len(); j++ {
			if tab.Cols[i][j] != want.Cols[i][j] {
				t.Fatalf("round trip col %s[%d] = %d, want %d",
					want.Names[i], j, tab.Cols[i][j], want.Cols[i][j])
			}
		}
	}
}

func TestSeriesCSV(t *testing.T) {
	r, c, _, _ := seriesRegistry()
	sp := NewSampler(10, r)
	*c += 5
	sp.Sample(10)
	*c += 5
	sp.Sample(20)
	var buf bytes.Buffer
	if err := sp.View().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "cycle,") {
		t.Fatalf("CSV header %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "20,") {
		t.Fatalf("CSV row %q", lines[2])
	}
}

func TestAnalyzeDerivedRates(t *testing.T) {
	r := NewRegistry()
	committed := gaugeVar(r, ColCommitted)
	faults := gaugeVar(r, ColFaultsRaised)
	scoreboard := gaugeVar(r, StallColPrefix+"scoreboard")
	faultWait := gaugeVar(r, StallColPrefix+"fault-wait")
	sp := NewSampler(1000, r)

	*committed += 2000 // interval 1: IPC 2.0, all stalls scoreboard
	*scoreboard += 300
	sp.Sample(1000)

	*committed += 500 // interval 2: IPC 0.5, faults dominate
	*faults += 8
	*scoreboard += 100
	*faultWait += 900
	sp.Sample(2000)

	iv := Analyze(sp.View().Table())
	if len(iv) != 2 {
		t.Fatalf("got %d intervals, want 2", len(iv))
	}
	if iv[0].IPC != 2.0 || iv[0].TopStall != "scoreboard" || iv[0].TopStallShare != 1.0 {
		t.Fatalf("interval 1 = %+v", iv[0])
	}
	if iv[1].IPC != 0.5 {
		t.Fatalf("interval 2 IPC = %v, want 0.5", iv[1].IPC)
	}
	if iv[1].FaultRate != 8.0 {
		t.Fatalf("interval 2 fault rate = %v, want 8/kcycle", iv[1].FaultRate)
	}
	if iv[1].TopStall != "fault-wait" || iv[1].TopStallShare != 0.9 {
		t.Fatalf("interval 2 top stall = %s %.2f, want fault-wait 0.90",
			iv[1].TopStall, iv[1].TopStallShare)
	}
}

func TestSummarizeFaultPhases(t *testing.T) {
	r := NewRegistry()
	committed := gaugeVar(r, ColCommitted)
	faults := gaugeVar(r, ColFaultsRaised)
	lat := r.Histogram("fault.latency_cycles")
	sp := NewSampler(1000, r)

	step := func(c, f int64, lats ...int64) {
		*committed += c
		*faults += f
		for _, l := range lats {
			lat.Observe(l)
		}
		sp.Sample(sp.LastCycle() + 1000)
	}
	step(1000, 0)          // quiet
	step(200, 4, 500, 700) // phase 1
	step(100, 2, 600)      // phase 1
	step(1000, 0)          // quiet
	step(300, 1, 900)      // phase 2
	step(1000, 0)          // quiet

	st := Summarize(sp.View().Table())
	if st.Samples != 6 || st.Cycles != 6000 {
		t.Fatalf("summary = %+v", st)
	}
	if st.TotalFaults != 7 {
		t.Fatalf("total faults = %d, want 7", st.TotalFaults)
	}
	if len(st.FaultPhases) != 2 {
		t.Fatalf("phases = %+v, want 2", st.FaultPhases)
	}
	p1, p2 := st.FaultPhases[0], st.FaultPhases[1]
	if p1.FromCycle != 1000 || p1.ToCycle != 3000 || p1.Faults != 6 {
		t.Fatalf("phase 1 = %+v", p1)
	}
	if want := float64(500+700+600) / 3; p1.MeanLatency != want {
		t.Fatalf("phase 1 mean latency = %v, want %v", p1.MeanLatency, want)
	}
	if p2.FromCycle != 4000 || p2.ToCycle != 5000 || p2.Faults != 1 || p2.MeanLatency != 900 {
		t.Fatalf("phase 2 = %+v", p2)
	}
	// Median interval IPC: sorted IPCs are 0.1,0.2,0.3,1,1,1 → 0.65.
	if want := 0.65; st.SteadyIPC != want {
		t.Fatalf("steady IPC = %v, want %v", st.SteadyIPC, want)
	}
}

func TestTracerTailMatchesEvents(t *testing.T) {
	tr, cycle := boundTracer(0, 8)
	for i := 0; i < 50; i++ {
		*cycle = int64(i)
		tr.Emit(i%2, KCommit, int32(i), uint64(i), 0)
		if i%3 == 0 {
			tr.Emit(-1, KMigrateEnd, 0, uint64(i), 0)
		}
	}
	all := tr.Events()
	for _, n := range []int{1, 3, 8, 100} {
		want := all
		if len(want) > n {
			want = want[len(want)-n:]
		}
		got := tr.Tail(n)
		if len(got) != len(want) {
			t.Fatalf("Tail(%d) has %d events, the last %d of Events() %d", n, len(got), n, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Tail(%d)[%d] = %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
	var nilTr *Tracer
	if ev := nilTr.Tail(5); ev != nil {
		t.Fatalf("nil tracer Tail = %v", ev)
	}
}

// FuzzSeriesNDJSON feeds arbitrary bytes to ReadSeriesNDJSON, the
// decoder simstat runs on series files. It must never panic, a table
// it accepts must be rectangular (one value per column per sample),
// and the analytics simstat runs on an accepted table must not panic
// either. The committed corpus holds a real gpues-series/1 file
// (gpusim -workload mri-q -sample-every 2500).
func FuzzSeriesNDJSON(f *testing.F) {
	f.Add([]byte(`{"schema":"gpues-series/1","every":100,"columns":["sm.committed","faultunit.raised"]}
{"cycle":100,"v":[50,1]}
{"cycle":200,"v":[120,1]}
`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := ReadSeriesNDJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(tb.Cols) != len(tb.Names) {
			t.Fatalf("%d columns named, %d decoded", len(tb.Names), len(tb.Cols))
		}
		for c, col := range tb.Cols {
			if len(col) != tb.Len() {
				t.Fatalf("column %q holds %d values for %d samples", tb.Names[c], len(col), tb.Len())
			}
		}
		Summarize(tb)
	})
}
