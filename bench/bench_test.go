package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from fresh simulations")

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles 1..10 = %v %v %v", q1, q2, q3)
	}
	// Python: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{2, 1})
	if !near(q1, 0.75) || !near(q2, 1.5) || !near(q3, 2.25) {
		t.Errorf("quartiles 1,2 = %v %v %v", q1, q2, q3)
	}
	if q1, _, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v %v", q1, q3)
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true}, {99, 90, false}, {1000, 99, true}, {999, 99, false},
		{40, 75, true}, {39, 75, false}, {20, 50, true}, {19, 50, false},
	} {
		if got := tailAllowed(c.n, c.p); got != c.want {
			t.Errorf("tailAllowed(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs, 90); p != 90 || v != 90 {
		t.Errorf("tail(1..100, 90) = %v at p%v", v, p)
	}
	// Below 100 samples p90 is refused and the highest allowed
	// percentile under it is reported instead.
	if v, p := tail(xs[:60], 90); p != 75 || v != 45 {
		t.Errorf("tail(1..60, 90) = %v at p%v, want 45 at p75", v, p)
	}
	if v, p := tail(xs[:30], 90); p != 50 || v != 15.5 {
		t.Errorf("tail(1..30, 90) = %v at p%v, want the median", v, p)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v", got)
	}
	if got := geomean([]float64{0, 2, 8}); !near(got, 4) {
		t.Errorf("geomean skipping zero = %v", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean empty = %v", got)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: ms(0), End: ms(100)},
		// Two overlapping children cover [10, 50).
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(50)},
		// A nested grandchild counts against its parent only.
		{ID: 4, Parent: 3, Name: "c", Start: ms(35), End: ms(45)},
		// A child running past its parent is clipped: covers [90, 100).
		{ID: 5, Parent: 1, Name: "d", Start: ms(90), End: ms(120)},
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{1: ms(50), 2: ms(30), 3: ms(10), 4: ms(10), 5: ms(30)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	tr := newTracer()
	root := tr.begin("sim.job", "p1/sgemm", 0)
	child := tr.begin("sim.new", "p1/sgemm", root)
	tr.end(child)
	tr.add("sim.slice", "p1/sgemm", root, ms(3), ms(5))
	tr.end(root)
	tr.begin("never-closed", "", 0)
	spans := tr.closed()
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var back []span
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.TID != 1 {
			t.Errorf("event %+v: want a complete event on the root's track", e)
		}
		start := time.Duration(math.Round(e.TS * 1e3))
		back = append(back, span{ID: e.Args.ID, Parent: e.Args.Parent, Name: e.Name, Req: e.Args.Req,
			Start: start, End: start + time.Duration(math.Round(e.Dur*1e3))})
	}
	if !reflect.DeepEqual(back, spans) {
		t.Errorf("round trip:\n got %+v\nwant %+v", back, spans)
	}
	if len(spans) != 3 {
		t.Errorf("closed() returned %d spans, want the 3 closed ones", len(spans))
	}
}

// benchmarkJSON is the benchmark definition at the repository root.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	check := func(what string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(listed), len(defs))
		}
		units := map[string]string{}
		for _, d := range defs {
			units[d.name] = d.unit
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, benchmark prints unit %q", what, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// smoke runs one workload slice in-process and checks its report:
// every listed metric with its unit and sample count, no errors, and a
// result object as the last line.
func smoke(t *testing.T, workload string, seed int64, traced bool, listed []struct{ Name, Unit string }) {
	t.Helper()
	opt := options{workload: workload, seed: seed, seconds: 0.01, traced: traced,
		workdir: t.TempDir(), jobs: 2}
	if traced {
		opt.traceOut = opt.workdir + "/trace.json"
	}
	var out bytes.Buffer
	code, err := run(opt, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string][]string{}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) >= 5 && f[0] == "metric" {
			lines[f[1]] = f[2:]
		}
	}
	if code != 0 {
		t.Fatalf("%s seed %d: exit %d:\n%s", workload, seed, code, out.String())
	}
	for _, m := range append(listed, struct{ Name, Unit string }{"error_rate", "ratio"}) {
		f, ok := lines[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not printed", workload, m.Name)
			continue
		}
		if f[1] != m.Unit || !strings.HasPrefix(f[2], "n=") {
			t.Errorf("%s: metric %s printed as %v, want unit %s and a sample count", workload, m.Name, f, m.Unit)
		}
	}
	if f := lines["error_rate"]; len(f) > 0 && f[0] != "0" {
		t.Errorf("%s: error_rate %s", workload, f[0])
	}
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(listed) {
		t.Errorf("%s: result %+v", workload, res)
	}
	if traced {
		if _, err := os.Stat(opt.traceOut); err != nil {
			t.Errorf("%s: no span file: %v", workload, err)
		}
	}
}

// TestSmoke runs every workload on a short slice: traced at the default
// seed (per-layer metrics, golden values) and untraced at seed 7
// (end-to-end metrics, seed-independent oracles).
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			smoke(t, wl, defaultSeed, true, b.PerLayer)
			smoke(t, wl, 7, false, b.EndToEnd)
		})
	}
}

// TestGolden checks that testdata/golden.json covers every job, and
// that the one simulation the old BENCH_4bf933f.json trajectory
// recorded still reads the same. With -update it first regenerates the
// file from fresh simulations.
func TestGolden(t *testing.T) {
	const path = "testdata/golden.json"
	if *update {
		g := map[string]outcome{}
		r := newRunner(options{seed: defaultSeed}, nil)
		for _, wl := range workloadNames {
			for _, j := range jobsFor(wl) {
				if _, ok := g[j.key()]; ok {
					continue
				}
				run, err := r.simulate(j, "")
				if err != nil {
					t.Fatalf("%s: %v", j.key(), err)
				}
				g[j.key()] = outcome{run.res.Cycles, run.res.Committed}
			}
		}
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]outcome
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		for _, j := range jobsFor(wl) {
			if o, ok := g[j.key()]; !ok || o.Cycles <= 0 || o.Committed <= 0 {
				t.Errorf("golden has no entry for %s (%s)", j.key(), wl)
			}
		}
	}

	// BenchmarkParallel's fig10-resident shape is sgemm, resident,
	// operand-log at scale 1 and the default seed.
	old, err := os.ReadFile("../BENCH_4bf933f.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Benchmarks []struct {
			Name    string
			Metrics map[string]float64
		}
	}
	if err := json.Unmarshal(old, &bench); err != nil {
		t.Fatal(err)
	}
	var pinned float64
	for _, b := range bench.Benchmarks {
		if b.Name == "BenchmarkParallel/fig10-resident/workers-1" {
			pinned = b.Metrics["sim-cycles"]
		}
	}
	const key = "sgemm/resident/operand-log/nvlink"
	if pinned != 101540 || float64(g[key].Cycles) != pinned {
		t.Errorf("golden %s = %d cycles, BENCH_4bf933f.json records %v (want both 101540)", key, g[key].Cycles, pinned)
	}
}
