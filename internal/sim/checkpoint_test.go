package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpues/internal/chaos"
	"gpues/internal/ckpt"
	"gpues/internal/config"
	"gpues/internal/vm"
)

// runRef runs cfg on a fresh spec uninterrupted and returns the result.
func runRef(t *testing.T, cfg config.Config, spec func() LaunchSpec) *Result {
	t.Helper()
	r, err := RunSpec(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// saveAt runs a fresh simulator to cycle at and returns the captured
// checkpoint.
func saveAt(t *testing.T, cfg config.Config, spec func() LaunchSpec, at int64) *ckpt.Checkpoint {
	t.Helper()
	s, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	reached, err := s.StepTo(at)
	if err != nil {
		t.Fatal(err)
	}
	if !reached {
		t.Fatalf("run finished at cycle %d before snapshot cycle %d", s.Cycle(), at)
	}
	return s.Capture()
}

// auditThenRun audits ck on a fresh simulator and runs to completion.
func auditThenRun(t *testing.T, cfg config.Config, spec func() LaunchSpec, ck *ckpt.Checkpoint) *Result {
	t.Helper()
	s, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Audit(ck); err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkIdentical fails unless the audited result matches the
// uninterrupted reference exactly — cycles, all statistics, metrics.
func checkIdentical(t *testing.T, ref, got *Result) {
	t.Helper()
	if got.Cycles != ref.Cycles {
		t.Fatalf("audited run took %d cycles, uninterrupted run %d", got.Cycles, ref.Cycles)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("audited result differs from uninterrupted run:\n got %+v\nwant %+v", got, ref)
	}
}

// TestCheckpointResumeBitIdentical is the core differential test: for
// every Fig10 scheme, snapshot mid-run, audit it on a fresh simulator,
// run to completion, and require a bit-identical Result.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, sch := range []config.Scheme{
		config.Baseline, config.WarpDisableCommit, config.WarpDisableLastCheck,
		config.ReplayQueue, config.OperandLog,
	} {
		sch := sch
		t.Run(sch.String(), func(t *testing.T) {
			cfg := config.Default()
			cfg.Scheme = sch
			spec := func() LaunchSpec { return testSpec(t, 16, 128, vm.RegionCPUInit, vm.RegionCPUInit) }
			ref := runRef(t, cfg, spec)
			at := ref.Cycles / 2
			ck := saveAt(t, cfg, spec, at)
			// SkipTo can jump over event-free stretches, so the snapshot
			// lands on the first cycle boundary at or after the target.
			if ck.Cycle < at || ck.Cycle >= ref.Cycles {
				t.Fatalf("checkpoint at cycle %d, want within [%d, %d)", ck.Cycle, at, ref.Cycles)
			}
			checkIdentical(t, ref, auditThenRun(t, cfg, spec, ck))
		})
	}
}

// TestCheckpointRoundTripThroughFile exercises the on-disk path:
// periodic checkpoints during a run, then an audit of the whole trail.
func TestCheckpointRoundTripThroughFile(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.ReplayQueue
	spec := func() LaunchSpec { return testSpec(t, 16, 128, vm.RegionCPUInit, vm.RegionCPUInit) }
	ref := runRef(t, cfg, spec)

	dir := t.TempDir()
	s, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	s.CheckpointEvery = ref.Cycles / 4
	s.CheckpointDir = dir
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Checkpointing must not perturb the run itself.
	checkIdentical(t, ref, r)

	trail, skipped, err := ckpt.ReadTrail(dir)
	if err != nil || len(skipped) > 0 {
		t.Fatalf("ReadTrail: %v (skipped %v)", err, skipped)
	}
	if n := len(trail); n < 3 || trail[0].Cycle <= 0 || trail[n-1].Cycle >= ref.Cycles {
		t.Fatalf("trail of %d checkpoints, want >= 3 within (0, %d)", n, ref.Cycles)
	}
	s2, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Audit(trail...); err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, ref, r2)
}

// TestCheckpointResumeUnderChaos snapshots a chaos run mid-flight —
// faults, forced switches and injected stalls in the air — and
// requires a bit-identical audited run, including the injected-event
// log.
func TestCheckpointResumeUnderChaos(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.ReplayQueue
	spec := func() LaunchSpec { return testSpec(t, 16, 128, vm.RegionCPUInit, vm.RegionCPUInit) }
	newPlan := func() *chaos.Plan {
		p, err := chaos.ForLevel(3, 7)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	refSim, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	refSim.AttachChaos(newPlan())
	ref, err := refSim.Run()
	if err != nil {
		t.Fatal(err)
	}
	refFP := refSim.chaos.Fingerprint()

	s, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	s.AttachChaos(newPlan())
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	at := ref.Cycles / 2
	if reached, err := s.StepTo(at); err != nil || !reached {
		t.Fatalf("StepTo(%d): reached=%v err=%v", at, reached, err)
	}
	ck := s.Capture()

	s2, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	s2.AttachChaos(newPlan())
	if err := s2.Audit(ck); err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, ref, r2)
	if fp := s2.chaos.Fingerprint(); fp != refFP {
		t.Fatalf("audited chaos event log fingerprint %#x, want %#x", fp, refFP)
	}
}

// TestCheckpointMidFault snapshots at the first cycle with a pending
// fault in the fault unit, so the audit is exercised with in-flight
// fault state.
func TestCheckpointMidFault(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.ReplayQueue
	spec := func() LaunchSpec { return testSpec(t, 16, 128, vm.RegionCPUInit, vm.RegionCPUInit) }
	ref := runRef(t, cfg, spec)

	s, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	at := int64(-1)
	for c := int64(1); c < ref.Cycles; c++ {
		reached, err := s.StepTo(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reached {
			break
		}
		if s.funit.Pending() > 0 {
			at = s.Cycle()
			break
		}
	}
	if at < 0 {
		t.Fatal("no cycle with a pending fault found")
	}
	ck := s.Capture()
	checkIdentical(t, ref, auditThenRun(t, cfg, spec, ck))
}

// TestCheckpointMidBlockSwitch snapshots while a block switch is in
// flight (a block off-chip or mid-transition) under the
// block-switching scheme with forced switches.
func TestCheckpointMidBlockSwitch(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.ReplayQueue
	cfg.DemandPaging = true
	cfg.Scheduler.Enabled = true
	cfg.Scheduler.SwitchThreshold = 0
	cfg.SM.MaxThreadBlocks = 2 // force pending blocks so switching has work
	spec := func() LaunchSpec { return testSpec(t, 64, 128, vm.RegionCPUInit, vm.RegionGPUInit) }
	newPlan := func() *chaos.Plan {
		return chaos.New(chaos.Config{Seed: 11, ForceSwitchProb: 1, MaxForcedSwitches: 64})
	}

	refSim, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	refSim.AttachChaos(newPlan())
	ref, err := refSim.Run()
	if err != nil {
		t.Fatal(err)
	}
	var totalSwitches int64
	for _, st := range ref.SMs {
		totalSwitches += st.SwitchesOut
	}
	if totalSwitches == 0 {
		t.Fatal("no block switches occurred; test setup cannot exercise mid-switch snapshots")
	}

	s, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	s.AttachChaos(newPlan())
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	at := int64(-1)
	for c := int64(1); c < ref.Cycles; c++ {
		reached, err := s.StepTo(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reached {
			break
		}
		for _, m := range s.sms {
			if m.Snapshot().OffChip > 0 {
				at = s.Cycle()
				break
			}
		}
		if at >= 0 {
			break
		}
	}
	if at < 0 {
		t.Skip("no mid-switch cycle observed")
	}
	ck := s.Capture()

	s2, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	s2.AttachChaos(newPlan())
	if err := s2.Audit(ck); err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, ref, r2)
}

// TestCheckpointPropertyRandom is the property test: random scheme,
// placement, grid shape and snapshot cycle — save → audit → run to end
// must always be bit-identical to the uninterrupted run.
func TestCheckpointPropertyRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	rng := rand.New(rand.NewSource(42))
	schemes := []config.Scheme{
		config.Baseline, config.WarpDisableCommit, config.WarpDisableLastCheck,
		config.ReplayQueue, config.OperandLog,
	}
	for i := 0; i < 6; i++ {
		sch := schemes[rng.Intn(len(schemes))]
		blocks := 8 + rng.Intn(16)
		inKind := vm.RegionCPUInit
		if rng.Intn(2) == 0 {
			inKind = vm.RegionGPUInit
		}
		chaosSeed := rng.Int63()
		useChaos := rng.Intn(2) == 0
		frac := 0.1 + 0.8*rng.Float64()

		cfg := config.Default()
		cfg.Scheme = sch
		spec := func() LaunchSpec { return testSpec(t, blocks, 128, inKind, vm.RegionCPUInit) }
		newPlan := func() *chaos.Plan {
			if !useChaos {
				return nil
			}
			p, err := chaos.ForLevel(2, chaosSeed)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}

		refSim, err := New(cfg, spec())
		if err != nil {
			t.Fatal(err)
		}
		refSim.AttachChaos(newPlan())
		ref, err := refSim.Run()
		if err != nil {
			t.Fatal(err)
		}

		at := int64(float64(ref.Cycles) * frac)
		if at < 1 {
			at = 1
		}
		s, err := New(cfg, spec())
		if err != nil {
			t.Fatal(err)
		}
		s.AttachChaos(newPlan())
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		reached, err := s.StepTo(at)
		if err != nil {
			t.Fatal(err)
		}
		if !reached {
			t.Fatalf("case %d: finished before snapshot cycle %d", i, at)
		}
		ck := s.Capture()

		s2, err := New(cfg, spec())
		if err != nil {
			t.Fatal(err)
		}
		s2.AttachChaos(newPlan())
		if err := s2.Audit(ck); err != nil {
			t.Fatalf("case %d (scheme=%v chaos=%v at=%d): %v", i, sch, useChaos, at, err)
		}
		r2, err := s2.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r2.Cycles != ref.Cycles || !reflect.DeepEqual(ref, r2) {
			t.Fatalf("case %d (scheme=%v chaos=%v at=%d): audited run differs", i, sch, useChaos, at)
		}
	}
}

// TestRestoreRejectsMismatchedConfig: a checkpoint from one config must
// not audit against a simulator built for another.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	cfg := config.Default()
	spec := func() LaunchSpec { return testSpec(t, 8, 128, vm.RegionGPUInit, vm.RegionGPUInit) }
	ck := saveAt(t, cfg, spec, 100)

	other := config.Default()
	other.Scheme = config.ReplayQueue
	s, err := New(other, spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Audit(ck); err == nil || !strings.Contains(err.Error(), "config fingerprint") {
		t.Fatalf("audit against a different config = %v, want a config fingerprint mismatch", err)
	}
}

// TestInjectedDivergenceDetected: a nonce perturbation in the
// checkpointing run must surface as a DivergenceError naming the
// component when a clean run audits against it.
func TestInjectedDivergenceDetected(t *testing.T) {
	cfg := config.Default()
	spec := func() LaunchSpec { return testSpec(t, 8, 128, vm.RegionGPUInit, vm.RegionGPUInit) }

	s, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InjectDivergence(50, "cache.l2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if reached, err := s.StepTo(100); err != nil || !reached {
		t.Fatalf("StepTo: reached=%v err=%v", reached, err)
	}
	ck := s.Capture()

	clean, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	err = clean.Audit(ck)
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("audit error = %v, want DivergenceError", err)
	}
	if de.Component != "cache.l2" {
		t.Errorf("divergent component = %q, want cache.l2", de.Component)
	}
	if de.Cycle != 100 {
		t.Errorf("divergence reported at cycle %d, want 100", de.Cycle)
	}

	// InjectDivergence must reject unknown components.
	if err := s.InjectDivergence(10, "no.such.component"); err == nil {
		t.Error("unknown component accepted")
	}
}

// TestAuditChecksEveryCycle: an audit checks the digests at every
// checkpoint of a trail, not only the last, so a divergence that starts
// between the 2nd and 3rd checkpoints is reported at the 3rd one's
// cycle, naming the diverged component.
func TestAuditChecksEveryCycle(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.ReplayQueue
	spec := func() LaunchSpec { return testSpec(t, 16, 128, vm.RegionCPUInit, vm.RegionCPUInit) }
	ref := runRef(t, cfg, spec)

	dir := t.TempDir()
	s, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	s.CheckpointEvery = ref.Cycles / 6
	s.CheckpointDir = dir
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	trail, skipped, err := ckpt.ReadTrail(dir)
	if err != nil || len(skipped) > 0 {
		t.Fatalf("ReadTrail: %v (skipped %v)", err, skipped)
	}
	if len(trail) < 4 {
		t.Fatalf("trail has %d checkpoints, want >= 4", len(trail))
	}

	audit, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	const victim = "dram"
	if err := audit.InjectDivergence((trail[1].Cycle+trail[2].Cycle)/2, victim); err != nil {
		t.Fatal(err)
	}
	err = audit.Audit(trail...)
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("audit error = %v, want DivergenceError", err)
	}
	if de.Component != victim || de.Cycle != trail[2].Cycle {
		t.Errorf("divergence of %q at cycle %d, want %q at the 3rd checkpoint's cycle %d",
			de.Component, de.Cycle, victim, trail[2].Cycle)
	}
}

// TestRestoreNamesTamperedSection: a file whose section digest was
// edited and whose file digest was then recomputed is a well-formed
// checkpoint, so Decode accepts it; the audit must still catch the
// edit and name the section.
func TestRestoreNamesTamperedSection(t *testing.T) {
	cfg := config.Default()
	spec := func() LaunchSpec { return testSpec(t, 8, 128, vm.RegionGPUInit, vm.RegionGPUInit) }
	s, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if reached, err := s.StepTo(100); err != nil || !reached {
		t.Fatalf("StepTo: reached=%v err=%v", reached, err)
	}
	path := filepath.Join(t.TempDir(), ckpt.FileName(s.Cycle()))
	if err := s.Capture().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Sections are (length-prefixed name, digest); flip a digest byte.
	const victim = "tlb.fillunit"
	name := binary.LittleEndian.AppendUint64(nil, uint64(len(victim)))
	name = append(name, victim...)
	at := bytes.Index(b, name)
	if at < 0 || bytes.Index(b[at+1:], name) >= 0 {
		t.Fatalf("section %q not found exactly once", victim)
	}
	b[at+len(name)] ^= 0xff
	body := b[:len(b)-8]
	binary.LittleEndian.PutUint64(b[len(b)-8:], ckpt.Digest(body))
	if _, err := ckpt.Decode(b); err != nil {
		t.Fatalf("re-stamped file rejected: %v", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	clean, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	ck, err := ckpt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	err = clean.Audit(ck)
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("audit error = %v, want DivergenceError", err)
	}
	if de.Component != victim {
		t.Errorf("divergent component = %q, want %s", de.Component, victim)
	}
}

// TestCheckpointFilesAreSmall: a checkpoint holds only a cycle and one
// digest per component, so at the default 16 SMs — with every optional
// component (chaos plan, GPU-local handler) wired in — each file stays
// within 2 KB.
func TestCheckpointFilesAreSmall(t *testing.T) {
	cfg := config.Default()
	cfg.Scheme = config.ReplayQueue
	cfg.Local.Enabled = true
	if cfg.System.NumSMs != 16 {
		t.Fatalf("default config has %d SMs, want 16", cfg.System.NumSMs)
	}
	plan, err := chaos.ForLevel(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(t, 32, 128, vm.RegionGPUInit, vm.RegionLazy)
	s, err := New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachChaos(plan)
	dir := t.TempDir()
	s.CheckpointEvery = 500
	s.CheckpointDir = dir
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("run wrote no checkpoints")
	}
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() > 2048 {
			t.Errorf("%s is %d bytes, want <= 2048", filepath.Base(f), info.Size())
		}
	}
	ck, err := ckpt.ReadFile(files[len(files)-1])
	if err != nil {
		t.Fatal(err)
	}
	if want := len(s.saverList()); len(ck.Sections) != want {
		t.Errorf("checkpoint has %d sections, simulator %d components", len(ck.Sections), want)
	}
}

// TestWatchdogWritesStallCheckpoint: a stalled run with a checkpoint
// dir configured leaves an automatic stall checkpoint referenced in
// its report.
func TestWatchdogWritesStallCheckpoint(t *testing.T) {
	cfg := config.Default()
	cfg.MaxCycles = 500 // force a max-cycles stall mid-run
	dir := t.TempDir()
	s, err := New(cfg, testSpec(t, 16, 128, vm.RegionCPUInit, vm.RegionCPUInit))
	if err != nil {
		t.Fatal(err)
	}
	s.CheckpointDir = dir
	_, err = s.Run()
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("run error = %v, want StallError", err)
	}
	if se.Report.Checkpoint == "" {
		t.Fatal("stall report carries no checkpoint path")
	}
	if _, err := os.Stat(se.Report.Checkpoint); err != nil {
		t.Fatalf("stall checkpoint missing: %v", err)
	}
	if filepath.Dir(se.Report.Checkpoint) != dir {
		t.Errorf("stall checkpoint %s not in %s", se.Report.Checkpoint, dir)
	}
	// The stall checkpoint must itself audit cleanly.
	ck, err := ckpt.ReadFile(se.Report.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg, testSpec(t, 16, 128, vm.RegionCPUInit, vm.RegionCPUInit))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Audit(ck); err != nil {
		t.Fatalf("audit of stall checkpoint: %v", err)
	}
}
