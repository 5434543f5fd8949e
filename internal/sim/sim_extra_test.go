package sim

import (
	"testing"

	"gpues/internal/config"
	"gpues/internal/vm"
)

// TestCPUCleanOutputsAllocOnly: demand-paging placement marks outputs
// CPU-clean; writes to them must raise allocation-only faults (no data
// transfer), while dirty inputs migrate.
func TestCPUCleanOutputsAllocOnly(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.ReplayQueue
	cfg.DemandPaging = true
	spec := testSpec(t, 8, 128, vm.RegionCPUInit, vm.RegionCPUClean)
	r, err := RunSpec(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.CPUFaults.Migrations == 0 {
		t.Error("dirty inputs must migrate")
	}
	if r.CPUFaults.AllocOnly == 0 {
		t.Error("clean outputs must raise allocation-only faults")
	}
	if r.Blocks != 8 {
		t.Errorf("blocks = %d", r.Blocks)
	}
}

// TestPCIeSlowerThanNVLink: the same paging run costs more over PCIe
// (25 us vs 12 us migrations).
func TestPCIeSlowerThanNVLink(t *testing.T) {
	run := func(link config.InterconnectConfig) int64 {
		cfg := config.Default()
		cfg.Scheme = config.ReplayQueue
		cfg.DemandPaging = true
		cfg.Link = link
		spec := testSpec(t, 16, 128, vm.RegionCPUInit, vm.RegionGPUInit)
		r, err := RunSpec(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	nv := run(config.NVLinkConfig())
	pc := run(config.PCIeConfig())
	if pc <= nv {
		t.Errorf("PCIe run (%d cycles) not slower than NVLink (%d)", pc, nv)
	}
}

// TestOperandLogNeverSlowerThanReplayQueue at the largest log size: the
// log strictly relaxes the replay queue's source holds.
func TestOperandLogNeverSlowerThanReplayQueue(t *testing.T) {
	run := func(scheme config.Scheme, logKB int) int64 {
		cfg := config.Default()
		cfg.Scheme = scheme
		cfg.SM.OperandLog.SizeKB = logKB
		spec := testSpec(t, 32, 128, vm.RegionGPUInit, vm.RegionGPUInit)
		r, err := RunSpec(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	rq := run(config.ReplayQueue, 16)
	ol := run(config.OperandLog, 64)
	// 2% tolerance for second-order structural effects.
	if float64(ol) > float64(rq)*1.02 {
		t.Errorf("operand log with a large log (%d cycles) slower than replay queue (%d)", ol, rq)
	}
}

// TestGreedyIssueCompletes: the alternative scheduler runs the full
// system correctly.
func TestGreedyIssueCompletes(t *testing.T) {
	cfg := config.Default()
	cfg.SM.GreedyIssue = true
	spec := testSpec(t, 16, 128, vm.RegionGPUInit, vm.RegionGPUInit)
	r, err := RunSpec(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks != 16 {
		t.Errorf("blocks = %d, want 16", r.Blocks)
	}
	if r.Committed != 16*4*16 {
		t.Errorf("committed = %d", r.Committed)
	}
}

// TestLocalHandlerConcurrencyKnob: higher configured concurrency cannot
// slow the lazy-allocation run down.
func TestLocalHandlerConcurrencyKnob(t *testing.T) {
	run := func(conc int) int64 {
		cfg := config.Default()
		cfg.Scheme = config.ReplayQueue
		cfg.Local.Enabled = true
		cfg.Local.Concurrency = conc
		spec := testSpec(t, 32, 128, vm.RegionGPUInit, vm.RegionLazy)
		r, err := RunSpec(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	one := run(1)
	eight := run(8)
	if eight > one {
		t.Errorf("concurrency 8 (%d cycles) slower than 1 (%d)", eight, one)
	}
}

// TestSmallGPUStillWorks: a 2-SM configuration runs the full stack.
func TestSmallGPUStillWorks(t *testing.T) {
	cfg := config.Default()
	cfg.System.NumSMs = 2
	spec := testSpec(t, 16, 128, vm.RegionGPUInit, vm.RegionGPUInit)
	r, err := RunSpec(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SMs) != 2 || r.Blocks != 16 {
		t.Errorf("SMs=%d blocks=%d", len(r.SMs), r.Blocks)
	}
}

// TestGridSmallerThanGPU: fewer blocks than SMs leaves idle SMs without
// wedging the run loop.
func TestGridSmallerThanGPU(t *testing.T) {
	cfg := config.Default()
	spec := testSpec(t, 3, 64, vm.RegionGPUInit, vm.RegionGPUInit)
	r, err := RunSpec(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks != 3 {
		t.Errorf("blocks = %d, want 3", r.Blocks)
	}
}

// TestSwitchingWithOperandLog: block switching composes with the
// operand-log scheme (its log contents join the context).
func TestSwitchingWithOperandLog(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.OperandLog
	cfg.DemandPaging = true
	cfg.Scheduler.Enabled = true
	cfg.Scheduler.SwitchThreshold = 0
	cfg.SM.MaxThreadBlocks = 2 // force pending blocks so switching has work
	spec := testSpec(t, 64, 128, vm.RegionCPUInit, vm.RegionGPUInit)
	r, err := RunSpec(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks != 64 {
		t.Errorf("blocks = %d, want 64", r.Blocks)
	}
	var out int64
	for _, s := range r.SMs {
		out += s.SwitchesOut
	}
	t.Logf("switches out = %d", out)
}

// TestMaxCyclesGuard: a tiny cycle budget aborts with a clear error.
func TestMaxCyclesGuard(t *testing.T) {
	cfg := config.Default()
	cfg.MaxCycles = 10
	spec := testSpec(t, 16, 128, vm.RegionGPUInit, vm.RegionGPUInit)
	if _, err := RunSpec(cfg, spec); err == nil {
		t.Fatal("MaxCycles guard did not trip")
	}
}
