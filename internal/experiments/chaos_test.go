package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

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
		plan, err := chaos.ForLevel(chaosLevel, chaosSeed(bench, s.String()))
		if err != nil {
			t.Fatal(err)
		}
		j.col, j.plan = s.String()+"-chaos", plan
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
