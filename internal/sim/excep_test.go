package sim

import (
	"errors"
	"testing"

	"gpues/internal/ckpt"
	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/excep"
	"gpues/internal/isa"
	"gpues/internal/kernel"
	"gpues/internal/vm"
)

// excepSpec builds a launch whose kernel stores gid to out[gid] and
// then asserts gid != failGid: exactly one warp raises KindAssert. A
// second store after the assertion overwrites out[gid] with 1, so the
// faulting warp's elements keep their gid value — evidence that its
// trace was truncated at the assert while every other warp ran on.
func excepSpec(t *testing.T, blocks, threads int, failGid int64) LaunchSpec {
	t.Helper()
	const oAddr = uint64(0x1000000)
	mem := emu.NewMemory()

	b := kernel.NewBuilder("assertdemo")
	po := b.AddParam(oAddr)
	tid, ctaid, ntid := b.Reg(), b.Reg(), b.Reg()
	gid, off, base, cond := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTidX)
	b.S2R(ctaid, isa.SRCtaIDX)
	b.S2R(ntid, isa.SRNTidX)
	b.IMad(gid, ctaid, ntid, tid)
	b.Shl(off, gid, 3)
	b.LoadParam(base, po)
	b.IAdd(base, base, off, 0)
	b.StGlobal(base, 0, gid, 8)
	b.SetP(isa.CmpNE, cond, gid, isa.RZ, failGid)
	b.Assert(cond, 7)
	b.StGlobal(base, 0, cond, 8)
	b.Exit()
	k := b.MustBuild()

	size := uint64(blocks * threads * 8)
	if size < 4096 {
		size = 4096
	}
	return LaunchSpec{
		Launch: &kernel.Launch{Kernel: k, Grid: kernel.Dim3{X: blocks}, Block: kernel.Dim3{X: threads}},
		Memory: mem,
		Regions: []vm.Region{
			{Name: "out", Base: oAddr, Size: size, Kind: vm.RegionGPUInit},
		},
	}
}

// runExcep runs the spec and requires the run to fail with a device
// exception, returning the structured error.
func runExcep(t *testing.T, cfg config.Config, spec LaunchSpec) *excep.Error {
	t.Helper()
	_, err := RunSpec(cfg, spec)
	if err == nil {
		t.Fatal("run completed without the expected device exception")
	}
	var ee *excep.Error
	if !errors.As(err, &ee) {
		t.Fatalf("run failed with %v, want *excep.Error", err)
	}
	return ee
}

func TestPreciseExceptionReported(t *testing.T) {
	cfg := config.Default()
	spec := excepSpec(t, 4, 64, 70) // block 1, warp 0, lane 6
	ee := runExcep(t, cfg, spec)
	if len(ee.Records) != 1 {
		t.Fatalf("got %d exception records, want 1: %v", len(ee.Records), ee)
	}
	r := ee.Records[0]
	if r.Kind != excep.KindAssert {
		t.Errorf("kind = %v, want %v", r.Kind, excep.KindAssert)
	}
	if r.Block != 1 || r.Warp != 0 || r.Lane != 6 {
		t.Errorf("raised at block %d warp %d lane %d, want 1/0/6", r.Block, r.Warp, r.Lane)
	}
	// The grid here finishes before the first poll boundary, so the
	// exception surfaces at the launch-completion drain; either way the
	// run must terminate with the error, never swallow it.
	if ee.Cycle <= 0 {
		t.Errorf("exception observed at non-positive cycle %d", ee.Cycle)
	}
	// Precise delivery: the faulting warp's trace ended at the assert,
	// so its lanes (gids 64..95) never ran the post-assert store; every
	// other thread overwrote its element with 1.
	for i := 0; i < 4*64; i++ {
		want := uint64(1)
		if i >= 64 && i < 96 {
			want = uint64(i)
		}
		if got := spec.Memory.ReadU64(0x1000000 + uint64(i*8)); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

// TestExceptionPollBoundary shrinks the poll period so the host's
// in-loop flag check — not the launch-completion drain — observes the
// exception: the terminating cycle must sit on a poll-period boundary
// while the rest of the grid is still running.
func TestExceptionPollBoundary(t *testing.T) {
	cfg := config.Default()
	cfg.Excep.PollEvery = 16
	ee := runExcep(t, cfg, excepSpec(t, 32, 64, 70))
	if ee.Cycle%cfg.Excep.PollEvery != 0 {
		t.Errorf("terminated at cycle %d, not a multiple of the %d-cycle poll period",
			ee.Cycle, cfg.Excep.PollEvery)
	}
}

func TestExceptionDeterminism(t *testing.T) {
	run := func() (int64, string) {
		ee := runExcep(t, config.Default(), excepSpec(t, 4, 64, 70))
		return ee.Cycle, ee.Records[0].String()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 {
		t.Errorf("exception cycle differs across identical runs: %d vs %d", c1, c2)
	}
	if s1 != s2 {
		t.Errorf("exception report differs across identical runs:\n%s\nvs\n%s", s1, s2)
	}
}

func TestPreemptibleExceptionSquash(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.ReplayQueue
	cfg.Excep.Mode = excep.ModePreemptible
	spec := excepSpec(t, 4, 64, 70)
	s, err := New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run()
	var ee *excep.Error
	if !errors.As(err, &ee) {
		t.Fatalf("run failed with %v, want *excep.Error", err)
	}
	if ee.Records[0].Kind != excep.KindAssert {
		t.Errorf("kind = %v, want %v", ee.Records[0].Kind, excep.KindAssert)
	}
	res := s.Collect()
	if res.Exceptions != 1 {
		t.Errorf("delivered exceptions = %d, want 1", res.Exceptions)
	}
	// Preemptible delivery squashes the faulting block through the
	// context-save path instead of just killing the warp.
	var switchesOut, contextBytes int64
	for _, st := range res.SMs {
		switchesOut += st.SwitchesOut
		contextBytes += st.ContextBytes
	}
	if switchesOut < 1 {
		t.Errorf("switches out = %d, want >= 1 (excepted block must drain off-chip)", switchesOut)
	}
	if contextBytes <= 0 {
		t.Errorf("context bytes = %d, want > 0", contextBytes)
	}
}

func TestPreemptibleExceptionDeterminism(t *testing.T) {
	run := func() (int64, string) {
		cfg := config.Default()
		cfg.Scheme = config.ReplayQueue
		cfg.Excep.Mode = excep.ModePreemptible
		ee := runExcep(t, cfg, excepSpec(t, 4, 64, 70))
		return ee.Cycle, ee.Records[0].String()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Errorf("preemptible exception not seed-stable: cycle %d/%d, report %q vs %q", c1, c2, s1, s2)
	}
}

func TestPreemptibleRequiresPreemptibleScheme(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.Baseline
	cfg.Excep.Mode = excep.ModePreemptible
	if _, err := New(cfg, excepSpec(t, 1, 32, 5)); err == nil {
		t.Fatal("New accepted preemptible exception mode with the non-preemptible baseline scheme")
	}
}

// TestExceptionCheckpointRestore checkpoints through the window between
// the exception post and the host's poll boundary, audits the whole
// trail on a fresh simulator, and requires the audited run to terminate
// with the identical exception.
func TestExceptionCheckpointRestore(t *testing.T) {
	cfg := config.Default()
	dir := t.TempDir()
	s, err := New(cfg, excepSpec(t, 4, 64, 70))
	if err != nil {
		t.Fatal(err)
	}
	s.CheckpointDir = dir
	s.CheckpointEvery = 256
	_, err = s.Run()
	var ee1 *excep.Error
	if !errors.As(err, &ee1) {
		t.Fatalf("run failed with %v, want *excep.Error", err)
	}

	trail, skipped, err := ckpt.ReadTrail(dir)
	if err != nil || len(trail) == 0 || len(skipped) > 0 {
		t.Fatalf("ReadTrail: %d checkpoints, skipped %v, %v", len(trail), skipped, err)
	}
	if last := trail[len(trail)-1].Cycle; last > ee1.Cycle {
		t.Fatalf("latest checkpoint at cycle %d is past the exception cycle %d", last, ee1.Cycle)
	}
	s2, err := New(cfg, excepSpec(t, 4, 64, 70))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Audit(trail...); err != nil {
		t.Fatalf("audit failed: %v", err)
	}
	_, err = s2.Run()
	var ee2 *excep.Error
	if !errors.As(err, &ee2) {
		t.Fatalf("audited run failed with %v, want *excep.Error", err)
	}
	if ee1.Cycle != ee2.Cycle {
		t.Errorf("audited run terminated at cycle %d, original at %d", ee2.Cycle, ee1.Cycle)
	}
	if ee1.Records[0].String() != ee2.Records[0].String() {
		t.Errorf("audited exception report differs:\n%s\nvs\n%s",
			ee2.Records[0].String(), ee1.Records[0].String())
	}
}

// TestFlipCampaignSeedStable reruns a bit-flip injection campaign and
// requires every observable — flip count, terminal cycle, success or
// the exact error — to be identical: the injector is a pure function
// of (seed, architectural coordinates), never of host state.
func TestFlipCampaignSeedStable(t *testing.T) {
	run := func() (flips, cycles int64, errStr string) {
		cfg := config.Default()
		cfg.Excep.Flip = excep.FlipConfig{Seed: 42, Rate: 0.01}
		spec := testSpec(t, 8, 64, vm.RegionGPUInit, vm.RegionGPUInit)
		s, err := New(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			errStr = err.Error()
		}
		if res == nil {
			res = s.Collect()
		}
		return res.Flips, res.Cycles, errStr
	}
	f1, c1, e1 := run()
	f2, c2, e2 := run()
	if f1 != f2 || c1 != c2 || e1 != e2 {
		t.Errorf("flip campaign not seed-stable: flips %d/%d, cycles %d/%d, err %q vs %q",
			f1, f2, c1, c2, e1, e2)
	}
	if f1 == 0 {
		t.Error("campaign at rate 0.01 injected no flips")
	}
}
