package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpues"
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
// and a trail with one file truncated on disk fails naming that file.
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

	victim := files[len(files)/2]
	if err := os.Truncate(victim, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := audit(newRun(t), dir); err == nil || !strings.Contains(err.Error(), victim) {
		t.Fatalf("audit of a truncated trail = %v, want an error naming %s", err, victim)
	}
}
