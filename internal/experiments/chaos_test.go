package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpues/internal/chaos"
	"gpues/internal/config"
	"gpues/internal/sim"
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
		plan, err := chaos.ForLevel(chaosLevel, chaosSeed(bench, s.String()))
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

	first, err := Chaos(opt)
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
	opt.Progress = func(s string) { lines = append(lines, s) }
	second, err := Chaos(opt)
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
	if _, err := Chaos(opt); err != nil {
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
	if _, err := Chaos(Options{Scale: 1, Benchmarks: []string{"mri-q"}, TraceDir: dir, TraceFilter: "fault"}); err != nil {
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

// TestChaosHalfResumes: a chaos half restores from the in-flight
// checkpoint a killed campaign left at its key and reproduces the
// uninterrupted result, while a checkpoint of another plan at the same
// key is discarded.
func TestChaosHalfResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	j := chaosJob(t, "mri-q", config.ReplayQueue, true)
	want, err := runAll(Options{Scale: 1}.normalize(), []job{j})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		seed    int64
		discard bool
	}{
		{"same plan", j.chaos.Seed, false},
		{"other plan", j.chaos.Seed + 1, true},
	} {
		var lines []string
		opt := Options{Scale: 1, ResumeDir: t.TempDir(), CheckpointEvery: 20_000,
			Progress: func(s string) { lines = append(lines, s) }}.normalize()
		// Plant the checkpoint of a half killed mid-run.
		spec, err := opt.build(j)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(j.cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		pc := *j.chaos
		pc.Seed = tc.seed
		s.AttachChaos(chaos.New(pc))
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		if reached, err := s.StepTo(30_000); err != nil || !reached {
			t.Fatalf("%s: planting run stopped early (reached %v): %v", tc.name, reached, err)
		}
		if _, err := s.WriteCheckpoint(resumePath(t, opt, j, ".ckpts")); err != nil {
			t.Fatal(err)
		}

		got, err := runAll(opt, []job{j})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: resumed half = %v, want %v", tc.name, got, want)
		}
		if discarded := strings.Contains(strings.Join(lines, "\n"), "discarded checkpoint"); discarded != tc.discard {
			t.Errorf("%s: discarded = %v, want %v; progress: %q", tc.name, discarded, tc.discard, lines)
		}
	}
}
