package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"gpues/internal/chaos"
	"gpues/internal/config"
	"gpues/internal/obs"
	"gpues/internal/vm"
)

// switchingConfig is the heaviest observable scenario: demand paging
// with block switching under the replay-queue scheme, exercising the
// full fault lifecycle (raise, merge, migrate, switch, replay).
func switchingConfig() config.Config {
	cfg := config.Default()
	cfg.Scheme = config.ReplayQueue
	cfg.DemandPaging = true
	cfg.Scheduler.Enabled = true
	return cfg
}

// tracedRun runs the spec with a tracer attached and returns both.
func tracedRun(t *testing.T, cfg config.Config, spec LaunchSpec, o obs.Options) (*Result, *obs.Tracer) {
	t.Helper()
	s, err := New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(o)
	s.AttachTracer(tr)
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, tr
}

// TestTraceCyclesUnchanged is the core tracing invariant: attaching a
// tracer must not perturb timing. The tracer never schedules clock
// events, so a traced run and an untraced run of the same spec must
// report bit-identical cycles, commits, and stall breakdowns.
func TestTraceCyclesUnchanged(t *testing.T) {
	cfg := switchingConfig()
	base, err := RunSpec(cfg, testSpec(t, 32, 128, vm.RegionCPUInit, vm.RegionGPUInit))
	if err != nil {
		t.Fatal(err)
	}
	traced, tr := tracedRun(t, cfg, testSpec(t, 32, 128, vm.RegionCPUInit, vm.RegionGPUInit), obs.Options{})
	if traced.Cycles != base.Cycles {
		t.Errorf("traced run took %d cycles, untraced %d", traced.Cycles, base.Cycles)
	}
	if traced.Committed != base.Committed {
		t.Errorf("traced committed = %d, untraced %d", traced.Committed, base.Committed)
	}
	if traced.Stalls != base.Stalls {
		t.Errorf("stall breakdown diverged:\ntraced:   %v\nuntraced: %v", traced.Stalls, base.Stalls)
	}
	if len(tr.Events()) == 0 {
		t.Fatal("traced run recorded no events")
	}
}

// TestTraceDeterminism: two runs of the same seedless, deterministic
// simulation must render byte-identical Chrome traces and metric
// snapshots — the property CI diffs rely on.
func TestTraceDeterminism(t *testing.T) {
	render := func() (string, string) {
		r, tr := tracedRun(t, switchingConfig(),
			testSpec(t, 16, 128, vm.RegionCPUInit, vm.RegionGPUInit), obs.Options{})
		var chrome, metrics bytes.Buffer
		if err := tr.WriteChrome(&chrome); err != nil {
			t.Fatal(err)
		}
		if err := r.Metrics.WriteJSON(&metrics); err != nil {
			t.Fatal(err)
		}
		return chrome.String(), metrics.String()
	}
	c1, m1 := render()
	c2, m2 := render()
	if c1 != c2 {
		t.Error("Chrome trace output differs between identical runs")
	}
	if m1 != m2 {
		t.Errorf("metrics snapshots differ between identical runs:\n%s\nvs\n%s", m1, m2)
	}
}

// TestTraceFaultLifecycle runs a demand-paging + switching workload and
// checks the trace contains at least one complete fault lifecycle:
// raise at the SM, region merge at the fault unit, CPU migration,
// resolution back at the warp, and the squash/replay of the faulting
// instruction. The exported Chrome trace must be valid JSON.
func TestTraceFaultLifecycle(t *testing.T) {
	cfg := switchingConfig()
	res, tr := tracedRun(t, cfg, testSpec(t, 64, 128, vm.RegionCPUInit, vm.RegionGPUInit), obs.Options{})
	seen := map[obs.Kind]int{}
	for _, ev := range tr.Events() {
		seen[ev.Kind]++
	}
	for _, k := range []obs.Kind{
		obs.KWalkFault, obs.KFaultRaised, obs.KRegionQueued,
		obs.KMigrateStart, obs.KMigrateEnd, obs.KRegionResolved,
		obs.KFaultResolved, obs.KSquash, obs.KReplayFetch, obs.KReplayCommit,
	} {
		if seen[k] == 0 {
			t.Errorf("no %v events in a demand-paging trace", k)
		}
	}
	// Block switching events only when the run actually switched.
	var out int64
	for _, st := range res.SMs {
		out += st.SwitchesOut
	}
	if out > 0 {
		for _, k := range []obs.Kind{obs.KSwitchOut, obs.KSaveStart, obs.KSaveEnd} {
			if seen[k] == 0 {
				t.Errorf("%d blocks switched out but no %v events", out, k)
			}
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) <= len(tr.Events()) {
		// Every recorded event plus the process-name metadata rows.
		t.Errorf("chrome export has %d rows for %d events", len(doc.TraceEvents), len(tr.Events()))
	}

	if h, ok := res.Metrics.Histograms["fault.latency_cycles"]; !ok || h.Count == 0 {
		t.Error("fault.latency_cycles histogram empty after a faulting run")
	}
	if res.Stalls[obs.StallFaultWait] == 0 {
		t.Error("no fault-wait stall cycles attributed in a faulting run")
	}
}

// TestTraceFilterLimitsKinds: a fault-group filter must keep pipeline
// noise out of the ring so the flight recorder survives long runs.
func TestTraceFilterLimitsKinds(t *testing.T) {
	mask, err := obs.ParseFilter("fault,migrate")
	if err != nil {
		t.Fatal(err)
	}
	_, tr := tracedRun(t, switchingConfig(),
		testSpec(t, 16, 128, vm.RegionCPUInit, vm.RegionGPUInit), obs.Options{Filter: mask})
	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("filtered trace is empty")
	}
	for _, ev := range events {
		switch ev.Kind {
		case obs.KSquash, obs.KFaultRaised, obs.KFaultResolved, obs.KRegionQueued,
			obs.KRegionResolved, obs.KWalkFault, obs.KMigrateStart, obs.KMigrateEnd:
		default:
			t.Fatalf("event kind %v leaked through filter %q", ev.Kind, "fault,migrate")
		}
	}
}

// chaosStall runs a demand-paging launch under a level-2 chaos plan
// until a cycle cap stops it mid-run, attaching tr (when non-nil) after
// the plan, and returns the stall report.
func chaosStall(t *testing.T, tr *obs.Tracer) StallReport {
	t.Helper()
	cfg := switchingConfig()
	cfg.MaxCycles = 20_000
	s, err := New(cfg, testSpec(t, 64, 128, vm.RegionCPUInit, vm.RegionGPUInit))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := chaos.ForLevel(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachChaos(plan)
	if s.Tracer() == nil {
		t.Fatal("AttachChaos on an untraced simulator attached no flight recorder")
	}
	if tr != nil {
		s.AttachTracer(tr)
		if s.Tracer() != tr {
			t.Fatal("AttachTracer did not replace the flight recorder")
		}
	}
	_, err = s.Run()
	var se *StallError
	if !errors.As(err, &se) || se.Report.Reason != "max-cycles" {
		t.Fatalf("run returned %v, want a max-cycles stall", err)
	}
	return se.Report
}

// TestChaosFlightRecorder: AttachChaos gives an untraced simulator a
// flight recorder of the fault lifecycle, whose events ride on a stall
// report; a tracer attached afterwards replaces it.
func TestChaosFlightRecorder(t *testing.T) {
	lifecycle, err := obs.ParseFilter(chaosTraceFilter)
	if err != nil {
		t.Fatal(err)
	}
	// outside counts the events the recorder's filter would drop.
	outside := func(ev []obs.Event) int {
		n := 0
		for _, e := range ev {
			if lifecycle&(1<<e.Kind) == 0 {
				n++
			}
		}
		return n
	}
	rec := chaosStall(t, nil).Trace
	faults := 0
	for _, e := range rec {
		if e.Kind == obs.KFaultRaised {
			faults++
		}
	}
	if faults == 0 {
		t.Errorf("stall report of a recorded chaos run has no fault events: %v", rec)
	}
	if n := outside(rec); n != 0 {
		t.Errorf("flight recorder kept %d events outside %q", n, chaosTraceFilter)
	}
	if n := outside(chaosStall(t, obs.New(obs.Options{})).Trace); n == 0 {
		t.Error("stall report carries only flight-recorder kinds; the attached unfiltered tracer did not replace it")
	}
}
