package gpues_test

import (
	"strings"
	"testing"

	"gpues"
)

// TestPublicAPIRoundTrip drives the whole stack through the public
// facade only: build a workload, run it under two schemes, regenerate a
// small figure slice and the static tables.
func TestPublicAPIRoundTrip(t *testing.T) {
	names := gpues.WorkloadNames("")
	if len(names) != 18 {
		t.Fatalf("workloads = %d, want 18", len(names))
	}
	if _, err := gpues.WorkloadDescription("lbm"); err != nil {
		t.Fatal(err)
	}
	if _, err := gpues.WorkloadDescription("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}

	spec, err := gpues.BuildWorkload("mri-q", gpues.WorkloadParams{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpues.DefaultConfig()
	base, err := gpues.Run(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles <= 0 || base.IPC() <= 0 {
		t.Fatalf("degenerate result: %+v", base)
	}

	spec2, _ := gpues.BuildWorkload("mri-q", gpues.WorkloadParams{Scale: 1})
	cfg.Scheme = gpues.WarpDisableCommit
	wd, err := gpues.Run(cfg, spec2)
	if err != nil {
		t.Fatal(err)
	}
	if wd.Cycles < base.Cycles {
		t.Errorf("wd-commit (%d cycles) faster than baseline (%d)", wd.Cycles, base.Cycles)
	}
}

func TestPublicTables(t *testing.T) {
	doc, err := gpues.RunExperiments([]string{"table1", "table2"}, gpues.ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Sections) != 2 {
		t.Fatalf("sections = %+v, want table1 and table2", doc.Sections)
	}
	t1 := doc.String()
	for _, want := range []string{"16 SMs", "64 max warps", "256 KB RF", "walkers"} {
		if !strings.Contains(strings.ToLower(t1), strings.ToLower(want)) {
			t.Errorf("Table1 output missing %q:\n%s", want, t1)
		}
	}
	rows := doc.Sections[1].Table2
	if len(rows) != 4 || rows[1].LogKB != 16 {
		t.Errorf("Table2 rows = %+v", rows)
	}
}

func TestPublicFigureSlice(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	doc, err := gpues.RunExperiments([]string{"fig10"}, gpues.ExperimentOptions{Benchmarks: []string{"mri-q"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Sections) != 1 || len(doc.Sections[0].Results) != 1 {
		t.Fatalf("sections = %+v, want one fig10 result", doc.Sections)
	}
	r := doc.Sections[0].Results[0]
	if len(r.Rows) != 1 || r.Rows[0].Benchmark != "mri-q" {
		t.Fatalf("rows = %+v", r.Rows)
	}
	v := r.Rows[0].Values["wd-commit"]
	if v <= 0 || v > 1.05 {
		t.Errorf("wd-commit relative perf = %v, want (0, 1.05]", v)
	}
	if !strings.Contains(doc.String(), "geomean") {
		t.Error("rendered result missing geomean row")
	}
}

func TestCustomKernelThroughFacade(t *testing.T) {
	b := gpues.NewKernelBuilder("noop")
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mem := gpues.NewMemory()
	spec := gpues.LaunchSpec{
		Launch: &gpues.Launch{Kernel: k, Grid: gpues.Dim3{X: 4}, Block: gpues.Dim3{X: 64}},
		Memory: mem,
	}
	res, err := gpues.Run(gpues.DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// 4 blocks x 2 warps x 1 exit instruction.
	if res.Committed != 8 {
		t.Errorf("committed = %d, want 8", res.Committed)
	}
}
