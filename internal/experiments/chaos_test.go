package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpues/internal/atomicio"
	"gpues/internal/chaos"
	"gpues/internal/config"
	"gpues/internal/workloads"
)

// chaosJob is one half of the chaos sweep's cell for bench and scheme.
func chaosJob(t *testing.T, bench string, s config.Scheme, stormy bool) job {
	t.Helper()
	cfg := config.Default()
	cfg.Scheme = s
	cfg.DemandPaging = true
	cfg.Scheduler.Enabled = true
	j := job{row: bench, col: s.String() + "-clean", bench: bench, cfg: cfg, place: workloads.DemandPaging(), oracle: true}
	if stormy {
		plan, err := chaos.ForLevel(chaosLevel, cellSeed(bench, s.String()))
		if err != nil {
			t.Fatal(err)
		}
		pc := plan.Config()
		j.col, j.chaos = s.String()+"-chaos", &pc
	}
	return j
}

// TestChaosKillAndResume exercises the sweep's crash recovery: a full
// pass records one done-file per clean/chaos run half; deleting a
// subset (simulating a campaign killed mid-flight) and re-invoking
// re-runs exactly the missing halves and reproduces the original
// result bit for bit.
func TestChaosKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	opt := Options{Scale: 1, Benchmarks: []string{"mri-q"}, ResumeDir: dir}

	first, err := chaosSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	done, err := filepath.Glob(filepath.Join(dir, "*.done.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 8 { // 4 schemes x {clean, chaos}
		t.Fatalf("done files = %v, want 8", done)
	}

	// Kill mid-campaign: drop the replay-queue halves and one clean
	// half of another scheme, keeping the rest finished.
	for _, j := range []job{
		chaosJob(t, "mri-q", config.ReplayQueue, false),
		chaosJob(t, "mri-q", config.ReplayQueue, true),
		chaosJob(t, "mri-q", config.WarpDisableCommit, false),
	} {
		if err := os.Remove(resumePath(t, opt, j, ".done.json")); err != nil {
			t.Fatal(err)
		}
	}

	var lines []string
	opt.Progress = func(_, _ int, s string) { lines = append(lines, s) }
	second, err := chaosSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("resumed sweep differs:\nfirst  %v\nsecond %v", first, second)
	}
	if skipped := countSkipped(lines); skipped != 5 { // 8 halves minus the 3 deleted done-files
		t.Errorf("skipped %d halves on resume, want 5:\n%s", skipped, strings.Join(lines, "\n"))
	}

	// A third pass must skip everything.
	lines = nil
	if _, err := chaosSweep(opt); err != nil {
		t.Fatal(err)
	}
	if skipped := countSkipped(lines); skipped != 8 {
		t.Errorf("skipped %d halves on full resume, want 8", skipped)
	}
}

// TestChaosTraceDir: with TraceDir set, every half of the sweep writes
// its own trace, named by benchmark, scheme and half.
func TestChaosTraceDir(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	if _, err := chaosSweep(Options{Scale: 1, Benchmarks: []string{"mri-q"}, TraceDir: dir, TraceFilter: "fault"}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []config.Scheme{config.WarpDisableCommit, config.WarpDisableLastCheck, config.ReplayQueue, config.OperandLog} {
		for _, half := range []string{"clean", "chaos"} {
			path := filepath.Join(dir, "mri-q-"+s.String()+"-"+half+".trace.json")
			if b, err := os.ReadFile(path); err != nil || !strings.Contains(string(b), "traceEvents") {
				t.Errorf("%s: no trace (%v)", path, err)
			}
		}
	}
	if traces, _ := filepath.Glob(filepath.Join(dir, "*.trace.json")); len(traces) != 8 {
		t.Errorf("traces = %v, want 8", traces)
	}
}

// TestChaosHalfRecordKeyedByPlan: a chaos half's done record is keyed
// by its plan, so a record of another plan for the same config and
// workload is a miss and the half simulates, while its own record is
// served without simulating.
func TestChaosHalfRecordKeyedByPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	j := chaosJob(t, "mri-q", config.ReplayQueue, true)
	want, err := runAll(Options{Scale: 1}.normalize(), []job{j})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	opt := Options{Scale: 1, ResumeDir: t.TempDir(),
		Progress: func(_, _ int, s string) { lines = append(lines, s) }}.normalize()
	// Plant a record of the same half under another plan's key.
	other := j
	pc := *j.chaos
	pc.Seed++
	other.chaos = &pc
	if err := atomicio.WriteJSON(resumePath(t, opt, other, ".done.json"), map[string]int64{"cycles": 1}); err != nil {
		t.Fatal(err)
	}
	for _, pass := range []struct {
		name   string
		served bool
	}{{"other plan's record", false}, {"own record", true}} {
		lines = nil
		got, err := runAll(opt, []job{j})
		if err != nil {
			t.Fatalf("%s: %v", pass.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: half = %v, want %v", pass.name, got, want)
		}
		if served := countSkipped(lines) == 1; served != pass.served {
			t.Errorf("%s: served from a record = %v, want %v; progress: %q", pass.name, served, pass.served, lines)
		}
	}
}
