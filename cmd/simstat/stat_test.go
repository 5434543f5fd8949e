package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gpues"
	"gpues/internal/obs"
)

// gaugeVar registers a gauge over a fresh variable, the way a
// component exposes a count it keeps, and returns the variable.
func gaugeVar(r *obs.Registry, name string) *int64 {
	v := new(int64)
	r.Gauge(name, func() int64 { return *v })
	return v
}

// buildSeries samples a synthetic run shape into a decoded table:
// steady commit progress, a fault burst with latency observations in
// the middle third, and a fault-wait stall dominating that burst.
func buildSeries(t *testing.T, samples int, burstFaults int64) *gpues.SeriesTable {
	t.Helper()
	r := obs.NewRegistry()
	committed := gaugeVar(r, obs.ColCommitted)
	faults := gaugeVar(r, obs.ColFaultsRaised)
	fw := gaugeVar(r, obs.StallColPrefix+"fault-wait")
	sb := gaugeVar(r, obs.StallColPrefix+"scoreboard")
	lat := r.Histogram("fault.latency_cycles")
	occ := int64(32)
	r.Gauge(obs.ColOccupancy, func() int64 { return occ })

	sp := obs.NewSampler(1000, r)
	for i := 1; i <= samples; i++ {
		inBurst := i > samples/3 && i <= 2*samples/3
		if inBurst {
			*committed += 200
			*faults += burstFaults
			*fw += 700
			*sb += 100
			for f := int64(0); f < burstFaults; f++ {
				lat.Observe(20_000)
			}
		} else {
			*committed += 650
			*sb += 200
			*fw += 150
		}
		sp.Sample(int64(i) * 1000)
	}

	var buf bytes.Buffer
	if err := sp.View().WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	tab, err := gpues.ReadSeriesNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestReportText(t *testing.T) {
	tab := buildSeries(t, 30, 3)
	var out bytes.Buffer
	if err := writeReport(&out, "run.ndjson", tab, 5, false); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"30 samples every 1000 cycles",
		"ipc           steady 0.650",
		"peak stall    fault-wait",
		"faults        30 raised in 1 phase(s)",
		"mean latency 20000 cycles",
		"top 5 intervals by stall share:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report misses %q:\n%s", want, text)
		}
	}
}

func TestReportJSON(t *testing.T) {
	tab := buildSeries(t, 30, 3)
	var out bytes.Buffer
	if err := writeReport(&out, "run.ndjson", tab, 4, true); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report JSON: %v\n%s", err, out.String())
	}
	if rep.Samples != 30 || rep.Every != 1000 {
		t.Errorf("samples/every = %d/%d", rep.Samples, rep.Every)
	}
	if rep.Stats.PeakStallReason != "fault-wait" {
		t.Errorf("peak stall = %q", rep.Stats.PeakStallReason)
	}
	if len(rep.Intervals) != 4 {
		t.Errorf("got %d top intervals, want 4", len(rep.Intervals))
	}
	// Burst intervals dominate the stall-share ranking.
	for _, iv := range rep.Intervals {
		if iv.TopStall != "fault-wait" {
			t.Errorf("interval at %d attributes to %q", iv.Cycle, iv.TopStall)
		}
	}
}

func TestDiffIdenticalPasses(t *testing.T) {
	a := buildSeries(t, 20, 3)
	b := buildSeries(t, 20, 3)
	d := diffSeries(a, b)
	if d.Aligned != 20 || d.OnlyA != 0 || d.OnlyB != 0 {
		t.Fatalf("alignment = %d/%d/%d", d.Aligned, d.OnlyA, d.OnlyB)
	}
	if d.maxRelPct() != 0 {
		t.Fatalf("identical series deviate: %+v", d.Cols)
	}
	if d.exceeds(0) {
		t.Error("identical series exceed a zero threshold")
	}
	var out bytes.Buffer
	if err := writeDiff(&out, "a", "b", d, 8, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "identical across aligned samples") {
		t.Errorf("diff text:\n%s", out.String())
	}
}

func TestDiffDetectsRegression(t *testing.T) {
	a := buildSeries(t, 20, 3)
	b := buildSeries(t, 24, 9) // longer run, 3x the faults
	d := diffSeries(a, b)
	if d.CyclesA == d.CyclesB {
		t.Fatal("test runs should end at different cycles")
	}
	if !d.exceeds(0) || !d.exceeds(50) {
		t.Error("regression not gated")
	}
	if d.maxRelPct() <= 0 {
		t.Fatalf("no deviation found: %+v", d.Cols)
	}
	// faultunit.raised deviates worst: 3 vs 9 per burst interval is a
	// 66.7% relative deviation.
	if worst := d.Cols[0]; worst.MaxRelPct < 60 {
		t.Errorf("worst deviation %+v", worst)
	}
	var out bytes.Buffer
	if err := writeDiff(&out, "a", "b", d, 3, false); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "REGRESSION") {
		t.Errorf("cycle mismatch not flagged:\n%s", text)
	}
	if !strings.Contains(text, "top 3 columns by deviation:") {
		t.Errorf("deviation table missing:\n%s", text)
	}

	// Without a threshold the diff only reports.
	if d.exceeds(-1) {
		t.Error("threshold -1 must never gate")
	}
}

func TestDiffMissingColumnGates(t *testing.T) {
	a := buildSeries(t, 10, 2)
	// b lacks the occupancy gauge.
	r := obs.NewRegistry()
	*gaugeVar(r, obs.ColCommitted) = 1
	sp := obs.NewSampler(1000, r)
	sp.Sample(1000)
	var buf bytes.Buffer
	if err := sp.View().WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := gpues.ReadSeriesNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := diffSeries(a, b)
	if len(d.MissingInB) == 0 {
		t.Fatalf("missing columns not detected: %+v", d)
	}
	if !d.exceeds(100) {
		t.Error("missing columns must gate at any threshold")
	}
}

func TestRelPct(t *testing.T) {
	cases := []struct {
		a, b int64
		want float64
	}{
		{0, 0, 0}, {5, 5, 0}, {100, 50, 50}, {50, 100, 50}, {-10, 10, 200}, {0, 4, 100},
	}
	for _, c := range cases {
		if got := relPct(c.a, c.b); got != c.want {
			t.Errorf("relPct(%d,%d) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}
