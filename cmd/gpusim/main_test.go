package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpues"
	"gpues/internal/ckpt"
	"gpues/internal/runspec"
)

// newRun builds the mri-q run gpusim would for -workload mri-q.
func newRun(t *testing.T) *gpues.Simulator {
	t.Helper()
	cfg, spec, err := (&runspec.JobSpec{Benchmark: "mri-q", Scale: 1}).Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := gpues.NewSimulator(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAuditTrail: an intact trail audits with every checkpoint counted,
// a trail with one file an older binary wrote fails naming that file
// and its version, and a trail with one file truncated on disk fails
// naming that file.
func TestAuditTrail(t *testing.T) {
	dir := t.TempDir()
	w := newRun(t)
	w.CheckpointEvery = 1000
	w.CheckpointDir = dir
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) < 3 {
		t.Fatalf("trail = %v, %v; want >= 3 files", files, err)
	}

	line, err := audit(newRun(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(" %d checkpoints match", len(files)); !strings.HasPrefix(line, "audit ") || !strings.Contains(line, want) {
		t.Errorf("summary = %q, want an audit line with%s", line, want)
	}

	old := files[0]
	ck, err := ckpt.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	ck.Version = 3
	if err := ck.WriteFile(old); err != nil {
		t.Fatal(err)
	}
	_, err = audit(newRun(t), dir)
	if want := "format version 3, this binary reads version 4"; err == nil ||
		!strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), want) {
		t.Fatalf("audit of a trail holding a version-3 file = %v, want an error naming %s and %q", err, old, want)
	}
	ck.Version = ckpt.Version
	if err := ck.WriteFile(old); err != nil {
		t.Fatal(err)
	}

	victim := files[len(files)/2]
	if err := os.Truncate(victim, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := audit(newRun(t), dir); err == nil || !strings.Contains(err.Error(), victim) {
		t.Fatalf("audit of a truncated trail = %v, want an error naming %s", err, victim)
	}
}

// TestSeriesDigest runs the CI telemetry job's configuration (gpusim
// -workload sgemm -paging -switching -scheme replay-queue -sample-every
// 1000 -series f) and requires the series file's SHA-256 to equal the
// committed digest. The series samples every 1000 cycles across clock
// skips, so it pins the cycles the main loop visits, which the cycle
// count alone does not.
func TestSeriesDigest(t *testing.T) {
	js := &runspec.JobSpec{Benchmark: "sgemm", Scale: 1, Scheme: "replay-queue",
		Placement: "paging", Switching: true, SampleEvery: 1000}
	cfg, spec, err := js.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := gpues.NewSimulator(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := js.Attach(s); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.series.ndjson")
	if err := writeSeriesFile(res.Series, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../testdata/ci/sgemm-paging-series.sha256")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
		t.Errorf("series digest %s, want %s", got, strings.TrimSpace(string(want)))
	}
}
