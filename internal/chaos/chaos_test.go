// Property tests for the chaos harness, run through the full simulator
// (external test package: chaos itself must stay a stdlib-only leaf).
package chaos_test

import (
	"strings"
	"testing"

	"gpues/internal/chaos"
	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/isa"
	"gpues/internal/kernel"
	"gpues/internal/sim"
	"gpues/internal/vm"
)

var preemptible = []config.Scheme{
	config.WarpDisableCommit, config.WarpDisableLastCheck,
	config.ReplayQueue, config.OperandLog,
}

// vecAddSpec builds a vector-add launch (out[i] = a[i] + b[i]) with the
// given region placements; every spec gets fresh functional memory so
// runs never share mutable state.
func vecAddSpec(t *testing.T, blocks, threads int, inKind, outKind vm.RegionKind) sim.LaunchSpec {
	t.Helper()
	n := blocks * threads
	const (
		aAddr = uint64(0x1000000)
		bAddr = uint64(0x2000000)
		oAddr = uint64(0x3000000)
	)
	mem := emu.NewMemory()
	for i := 0; i < n; i++ {
		mem.WriteF64(aAddr+uint64(i*8), float64(i))
		mem.WriteF64(bAddr+uint64(i*8), float64(i)*2)
	}

	b := kernel.NewBuilder("vecadd")
	pa := b.AddParam(aAddr)
	pb := b.AddParam(bAddr)
	po := b.AddParam(oAddr)
	tid, ctaid, ntid := b.Reg(), b.Reg(), b.Reg()
	gid, off, base, va, vb := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTidX)
	b.S2R(ctaid, isa.SRCtaIDX)
	b.S2R(ntid, isa.SRNTidX)
	b.IMad(gid, ctaid, ntid, tid)
	b.Shl(off, gid, 3)
	b.LoadParam(base, pa)
	b.IAdd(base, base, off, 0)
	b.LdGlobal(va, base, 0, 8)
	b.LoadParam(base, pb)
	b.IAdd(base, base, off, 0)
	b.LdGlobal(vb, base, 0, 8)
	b.FAdd(va, va, vb)
	b.LoadParam(base, po)
	b.IAdd(base, base, off, 0)
	b.StGlobal(base, 0, va, 8)
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	size := uint64(n * 8)
	if size < 4096 {
		size = 4096
	}
	return sim.LaunchSpec{
		Launch: &kernel.Launch{Kernel: k, Grid: kernel.Dim3{X: blocks}, Block: kernel.Dim3{X: threads}},
		Memory: mem,
		Regions: []vm.Region{
			{Name: "a", Base: aAddr, Size: size, Kind: inKind},
			{Name: "b", Base: bAddr, Size: size, Kind: inKind},
			{Name: "out", Base: oAddr, Size: size, Kind: outKind},
		},
	}
}

// TestChaosOracleAllSchemes is the restartability property test: under a
// level-3 fault storm, every preemptible scheme must finish with memory
// byte-identical to the functional oracle, both for CPU-resident inputs
// (demand paging + block switching) and for lazily allocated outputs
// handled by the GPU-local handler.
func TestChaosOracleAllSchemes(t *testing.T) {
	variants := []struct {
		name            string
		inKind, outKind vm.RegionKind
		local           bool
	}{
		{"demand-paging", vm.RegionCPUInit, vm.RegionGPUInit, false},
		{"lazy-local", vm.RegionGPUInit, vm.RegionLazy, true},
	}
	for _, scheme := range preemptible {
		for _, va := range variants {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := config.Default()
				cfg.Scheme = scheme
				cfg.Scheduler.Enabled = true
				cfg.DemandPaging = va.inKind == vm.RegionCPUInit
				cfg.Local.Enabled = va.local
				plan, err := chaos.ForLevel(3, seed)
				if err != nil {
					t.Fatal(err)
				}
				spec := vecAddSpec(t, 16, 128, va.inKind, va.outKind)
				cr, err := sim.RunChaos(cfg, spec, plan)
				if err != nil {
					t.Fatalf("%v/%s seed %d: %v", scheme, va.name, seed, err)
				}
				if len(cr.Mismatches) != 0 {
					t.Errorf("%v/%s seed %d: %d oracle mismatches, first %+v (injected: %s)",
						scheme, va.name, seed, len(cr.Mismatches), cr.Mismatches[0], cr.Summary)
				}
				if cr.Blocks != 16 {
					t.Errorf("%v/%s seed %d: %d blocks completed, want 16", scheme, va.name, seed, cr.Blocks)
				}
			}
		}
	}
}

// TestChaosReproducible checks bit-reproducibility: the same seed must
// yield the same cycle count and the same injected-event log.
func TestChaosReproducible(t *testing.T) {
	run := func() *sim.ChaosResult {
		cfg := config.Default()
		cfg.Scheme = config.ReplayQueue
		cfg.DemandPaging = true
		cfg.Scheduler.Enabled = true
		plan, err := chaos.ForLevel(3, 42)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := sim.RunChaos(cfg, vecAddSpec(t, 16, 128, vm.RegionCPUInit, vm.RegionGPUInit), plan)
		if err != nil {
			t.Fatal(err)
		}
		return cr
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Errorf("cycles differ across identical seeds: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("event-log fingerprints differ: %#x vs %#x", a.Fingerprint, b.Fingerprint)
	}
	if len(a.Events) != len(b.Events) {
		t.Errorf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	if len(a.Events) == 0 {
		t.Error("level-3 plan injected nothing")
	}
}

// TestChaosZeroPlanNoOverhead checks that both a nil plan and the zero
// config change nothing: cycle counts must equal a plain run's.
func TestChaosZeroPlanNoOverhead(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.OperandLog
	plain, err := sim.RunSpec(cfg, vecAddSpec(t, 8, 128, vm.RegionGPUInit, vm.RegionGPUInit))
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*chaos.Plan{nil, chaos.New(chaos.Config{})} {
		cr, err := sim.RunChaos(cfg, vecAddSpec(t, 8, 128, vm.RegionGPUInit, vm.RegionGPUInit), plan)
		if err != nil {
			t.Fatal(err)
		}
		if cr.Cycles != plain.Cycles {
			t.Errorf("zero plan changed timing: %d cycles vs %d plain", cr.Cycles, plain.Cycles)
		}
		if len(cr.Mismatches) != 0 {
			t.Error("zero-plan run diverged from oracle")
		}
		if len(cr.Events) != 0 {
			t.Errorf("zero plan injected %d events", len(cr.Events))
		}
	}
}

// TestChaosOOMStructuredError checks the memory-exhaustion path: a
// demand-paging run with no free GPU frames must fail with a structured
// error (the old code path panicked).
func TestChaosOOMStructuredError(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.ReplayQueue
	cfg.DemandPaging = true
	plan := chaos.New(chaos.Config{ExhaustGPUMemory: true})
	spec := vecAddSpec(t, 4, 128, vm.RegionCPUInit, vm.RegionGPUInit)
	_, err := sim.RunChaos(cfg, spec, plan)
	if err == nil {
		t.Fatal("run under exhausted GPU memory succeeded")
	}
	if !strings.Contains(err.Error(), "fault resolution") {
		t.Errorf("error lacks fault-resolution diagnostic: %v", err)
	}
}

// TestChaosForcedSwitches checks that the force-switch hook actually
// drives the block scheduler: a level-3 storm over a faulting workload
// must record forced-switch events and real switch-outs.
func TestChaosForcedSwitches(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := config.Default()
		cfg.Scheme = config.ReplayQueue
		cfg.DemandPaging = true
		cfg.Scheduler.Enabled = true
		// An unreachable organic threshold: every switch-out below must
		// come from the chaos hook.
		cfg.Scheduler.SwitchThreshold = 1 << 30
		plan, err := chaos.ForLevel(3, seed)
		if err != nil {
			t.Fatal(err)
		}
		// 512-thread blocks cap occupancy at 4 blocks/SM, so half the
		// grid is pending and the scheduler always has work to switch in.
		cr, err := sim.RunChaos(cfg, vecAddSpec(t, 128, 512, vm.RegionCPUInit, vm.RegionGPUInit), plan)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		forced := 0
		for _, e := range cr.Events {
			if e.Kind == chaos.EventForceSwitch {
				forced++
			}
		}
		var out int64
		for _, st := range cr.SMs {
			out += st.SwitchesOut
		}
		t.Logf("seed %d: %d forced-switch events, %d switch-outs", seed, forced, out)
		if forced > 0 && out > 0 {
			return
		}
	}
	t.Error("no seed in 1..5 produced a forced switch with switch-outs")
}

// TestChaosLevelRange checks the preset validation.
func TestChaosLevelRange(t *testing.T) {
	if _, err := chaos.ForLevel(4, 1); err == nil {
		t.Error("level 4 accepted")
	}
	if _, err := chaos.ForLevel(-1, 1); err == nil {
		t.Error("level -1 accepted")
	}
	p, err := chaos.ForLevel(0, 1)
	if err != nil || p == nil {
		t.Errorf("level 0 rejected: %v", err)
	}
}
