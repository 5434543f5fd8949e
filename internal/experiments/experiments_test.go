package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpues/internal/config"
	"gpues/internal/workloads"
)

// The full suites run via cmd/experiments; tests here exercise the
// harness machinery on single-benchmark subsets.

func TestFig10SubsetShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	r, err := fig10(Options{Scale: 1, Benchmarks: []string{"mri-q"}})
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "fig10" || len(r.Rows) != 1 {
		t.Fatalf("result = %+v", r)
	}
	row := r.Rows[0]
	wd := row.Values["wd-commit"]
	lc := row.Values["wd-lastcheck"]
	rq := row.Values["replay-queue"]
	if wd <= 0 || lc <= 0 || rq <= 0 {
		t.Fatalf("missing values: %+v", row.Values)
	}
	// The ordering invariant of Section 5.2: baseline >= rq >= lc >= wd
	// (small tolerance for structural noise).
	if wd > lc*1.02 || lc > rq*1.02 || rq > 1.02 {
		t.Errorf("scheme ordering violated: wd=%.3f lc=%.3f rq=%.3f", wd, lc, rq)
	}
	if g := r.Geomean["wd-commit"]; g != wd {
		t.Errorf("single-row geomean = %v, want %v", g, wd)
	}
}

func TestFig13SubsetRouting(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	r, err := fig13(Options{Scale: 1, Benchmarks: []string{"halloc-spree"}})
	if err != nil {
		t.Fatal(err)
	}
	nv := r.Rows[0].Values["nvlink"]
	pc := r.Rows[0].Values["pcie"]
	if nv <= 1 {
		t.Errorf("local handling of halloc-spree must win on NVLink, got %.3f", nv)
	}
	if pc <= nv {
		t.Errorf("PCIe speedup (%.3f) must exceed NVLink's (%.3f): higher fault cost, more contention", pc, nv)
	}
}

func TestProgressCallback(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var lines []string
	_, err := fig10(Options{
		Scale:      1,
		Benchmarks: []string{"mri-q"},
		Progress: func(done, total int, s string) {
			// 4 schemes = 4 runs, counted 1..4 as they finish.
			if done != len(lines)+1 || total != 4 {
				t.Errorf("progress %d/%d after %d lines, want %d/4", done, total, len(lines), len(lines)+1)
			}
			lines = append(lines, s)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 {
		t.Errorf("progress lines = %d, want 4", len(lines))
	}
}

func TestUnknownBenchmarkFails(t *testing.T) {
	if _, err := fig10(Options{Benchmarks: []string{"nope"}}); err == nil {
		t.Fatal("unknown benchmark must fail")
	}
}

func TestTable1Render(t *testing.T) {
	out := table1(config.Default())
	for _, want := range []string{"16 SMs", "64 page table walkers", "256 GB/s", "64 KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestResultString(t *testing.T) {
	r := &Result{
		ID:      "figX",
		Title:   "test",
		Metric:  "ratio",
		Columns: []string{"a", "b"},
		Rows: []Row{
			{Benchmark: "w1", Values: map[string]float64{"a": 1.5, "b": 0.5}},
			{Benchmark: "w2", Values: map[string]float64{"a": 2.0, "b": 0.5}},
		},
		Geomean: map[string]float64{},
	}
	for _, c := range r.Columns {
		r.Geomean[c] = geomean(r.Rows, c)
	}
	out := r.String()
	if !strings.Contains(out, "figX") || !strings.Contains(out, "geomean") {
		t.Errorf("rendered:\n%s", out)
	}
	// geomean(1.5, 2.0) = sqrt(3).
	if g := r.Geomean["a"]; g < 1.73 || g > 1.74 {
		t.Errorf("geomean a = %v, want ~1.732", g)
	}
	if g := r.Geomean["b"]; g != 0.5 {
		t.Errorf("geomean b = %v, want 0.5", g)
	}
}

func TestGeomeanSkipsZeros(t *testing.T) {
	rows := []Row{
		{Benchmark: "w1", Values: map[string]float64{"a": 2.0}},
		{Benchmark: "w2", Values: map[string]float64{}}, // missing
	}
	if g := geomean(rows, "a"); g != 2.0 {
		t.Errorf("geomean = %v, want 2.0 (missing values skipped)", g)
	}
	if g := geomean(nil, "a"); g != 0 {
		t.Errorf("empty geomean = %v, want 0", g)
	}
}

// fig10Job is Figure 10's job for one benchmark and scheme.
func fig10Job(bench string, s config.Scheme) job {
	cfg := config.Default()
	cfg.Scheme = s
	return job{row: bench, col: s.String(), bench: bench, cfg: cfg, place: workloads.Resident()}
}

// The first failure stops the campaign: on one worker, the jobs queued
// behind a failed one never start.
func TestRunAllStopsAtFirstError(t *testing.T) {
	bad := fig10Job("mri-q", config.Baseline)
	bad.cfg.System.NumSMs = 0
	jobs := []job{bad, fig10Job("mri-q", config.WarpDisableCommit), fig10Job("mri-q", config.ReplayQueue)}
	runs := 0
	_, err := runAll(Options{Scale: 1, Parallelism: 1, Progress: func(int, int, string) { runs++ }}, jobs)
	if err == nil || !strings.Contains(err.Error(), "mri-q/baseline") {
		t.Fatalf("runAll error = %v, want the invalid baseline job's", err)
	}
	if runs != 0 {
		t.Errorf("%d jobs ran after the first failed", runs)
	}
}

// resumePath is where opt.ResumeDir keeps j's record (suffix
// ".done.json").
func resumePath(t *testing.T, opt Options, j job, suffix string) string {
	t.Helper()
	spec, err := opt.normalize().build(j)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(opt.ResumeDir, j.key(spec)+suffix)
}

// countSkipped counts the progress lines of runs served from a record.
func countSkipped(lines []string) int {
	n := 0
	for _, l := range lines {
		if strings.Contains(l, "(done, skipped)") {
			n++
		}
	}
	return n
}

func TestResumeDirSkipsFinishedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	opt := Options{Scale: 1, Benchmarks: []string{"mri-q"}, ResumeDir: dir}

	first, err := fig10(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []config.Scheme{config.Baseline, config.WarpDisableCommit, config.WarpDisableLastCheck, config.ReplayQueue} {
		if _, err := os.Stat(resumePath(t, opt, fig10Job("mri-q", s), ".done.json")); err != nil {
			t.Errorf("no record for %v: %v", s, err)
		}
	}
	if done, _ := filepath.Glob(filepath.Join(dir, "*.done.json")); len(done) != 4 { // 4 schemes
		t.Fatalf("records = %v, want 4", done)
	}

	// Second invocation must skip every run and reproduce the figure.
	var lines []string
	opt.Progress = func(_, _ int, s string) { lines = append(lines, s) }
	second, err := fig10(opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := countSkipped(lines); n != 4 || len(lines) != 4 {
		t.Errorf("skipped %d of %d runs on resume, want 4 of 4: %q", n, len(lines), lines)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("resumed figure differs:\nfirst  %v\nsecond %v", first, second)
	}
}

// A record is keyed by what was simulated, so the same row and column
// labels with a changed config must simulate, not reuse.
func TestResumeDirMissesOnConfigChange(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var lines []string
	opt := Options{Scale: 1, ResumeDir: t.TempDir(), Progress: func(_, _ int, s string) { lines = append(lines, s) }}.normalize()
	j := fig10Job("mri-q", config.Baseline)
	first, err := runAll(opt, []job{j})
	if err != nil {
		t.Fatal(err)
	}
	j.cfg.SM.L1Latency++
	second, err := runAll(opt, []job{j})
	if err != nil {
		t.Fatal(err)
	}
	if n := countSkipped(lines); n != 0 {
		t.Fatalf("changed config reused a record: %q", lines)
	}
	if a, b := first["mri-q"]["baseline"], second["mri-q"]["baseline"]; a == b {
		t.Errorf("L1 latency +1 kept the cycle count %d", a)
	}
	if done, _ := filepath.Glob(filepath.Join(opt.ResumeDir, "*.done.json")); len(done) != 2 {
		t.Errorf("records = %v, want one per config", done)
	}
}

// Identical runs in different figures share one record: every Figure
// 11 baseline run is a Figure 10 baseline run.
func TestResumeDirSharedAcrossFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	fresh, err := fig11(Options{Scale: 1, Benchmarks: []string{"mri-q"}})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Scale: 1, Benchmarks: []string{"mri-q"}, ResumeDir: t.TempDir()}
	if _, err := fig10(opt); err != nil {
		t.Fatal(err)
	}
	var lines []string
	opt.Progress = func(_, _ int, s string) { lines = append(lines, s) }
	shared, err := fig11(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if skipped := strings.Contains(l, "(done, skipped)"); skipped != strings.Contains(l, " baseline ") {
			t.Errorf("only the baseline run may come from Figure 10's record: %s", l)
		}
	}
	if countSkipped(lines) != 1 {
		t.Errorf("baseline not served from Figure 10's record: %q", lines)
	}
	if !reflect.DeepEqual(fresh, shared) {
		t.Errorf("shared-record figure differs:\nfresh  %v\nshared %v", fresh, shared)
	}
}

func TestResumeDirDiscardStaleDoneFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	var lines []string
	opt := Options{Scale: 1, Benchmarks: []string{"mri-q"}, ResumeDir: dir,
		Progress: func(_, _ int, s string) { lines = append(lines, s) }}
	bogus := []byte(`{"fig":"fig10","bench":"mri-q","col":"baseline","scale":1,"cycles":1}`)
	// A record of the same run at another scale must not satisfy this
	// campaign, and neither may one named the old way, by figure,
	// benchmark and column.
	for _, path := range []string{
		resumePath(t, Options{Scale: 2, ResumeDir: dir}, fig10Job("mri-q", config.Baseline), ".done.json"),
		filepath.Join(dir, "fig10-mri-q-baseline.done.json"),
	} {
		if err := os.WriteFile(path, bogus, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := fig10(opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := countSkipped(lines); n != 0 {
		t.Errorf("stale done-file served: %q", lines)
	}
	if v := r.Rows[0].Values["replay-queue"]; v <= 0.9 || v > 1.02 {
		t.Errorf("stale done-file corrupted the figure: %+v", r.Rows[0].Values)
	}
}

// A torn done-file (kill -9 mid-write leaves only the .tmp sibling, or
// a corrupt destination) must read as absent: the job reruns instead of
// being skipped with garbage cycles.
func TestResumeDirIgnoresTornDoneFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var lines []string
	opt := Options{Scale: 1, Benchmarks: []string{"mri-q"}, ResumeDir: t.TempDir(),
		Progress: func(_, _ int, s string) { lines = append(lines, s) }}
	// Only the .tmp sibling exists: the atomic-write idiom guarantees the
	// destination never appears half-written, so this is the on-disk
	// state after a mid-write kill.
	if err := os.WriteFile(resumePath(t, opt, fig10Job("mri-q", config.Baseline), ".done.json.tmp"),
		[]byte(`{"cycles":`), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a sibling column's destination holds garbage (torn by a
	// non-atomic writer): it must be discarded, not half-decoded.
	if err := os.WriteFile(resumePath(t, opt, fig10Job("mri-q", config.ReplayQueue), ".done.json"),
		[]byte(`{"cycles":`), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := fig10(opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := countSkipped(lines); n != 0 {
		t.Errorf("torn done-file served: %q", lines)
	}
	if v := r.Rows[0].Values["replay-queue"]; v <= 0.9 || v > 1.02 {
		t.Errorf("torn done-files corrupted the figure: %+v", r.Rows[0].Values)
	}
}
