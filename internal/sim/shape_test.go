// Shared workload shape for the external differential tests, plus the
// checkpoint tests that audit across a field FingerprintConfig
// excludes.
//
// The tests live in the external sim_test package because the workload
// builders import sim.
package sim_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gpues/internal/ckpt"
	"gpues/internal/config"
	"gpues/internal/excep"
	"gpues/internal/sim"
	"gpues/internal/workloads"
)

// shapeCase is one workload/config shape.
type shapeCase struct {
	bench string
	place workloads.Placement
	mut   func(*config.Config)
}

// pagingCase is the Fig12 shape: on-demand paging with block switching
// on fault. Its fault bursts exercise every derived telemetry rate and
// put mid-fault state into any checkpoint taken halfway through.
func pagingCase() shapeCase {
	return shapeCase{
		bench: "sgemm",
		place: workloads.DemandPaging(),
		mut: func(c *config.Config) {
			c.Scheme = config.ReplayQueue
			c.DemandPaging = true
			c.Scheduler.Enabled = true
		},
	}
}

// buildSpec builds the case's workload afresh: runs mutate the
// functional memory image, so every simulation needs its own.
func buildSpec(t *testing.T, pc shapeCase) sim.LaunchSpec {
	t.Helper()
	spec, err := workloads.Build(pc.bench, workloads.Params{Scale: 1, Placement: pc.place})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func caseConfig(pc shapeCase, mode excep.Mode) config.Config {
	cfg := config.Default()
	pc.mut(&cfg)
	cfg.Excep.Mode = mode
	return cfg
}

// runWithDigests runs cfg on a fresh spec to completion and returns
// the result plus the end-of-run per-component state digests.
func runWithDigests(t *testing.T, pc shapeCase, cfg config.Config) (*sim.Result, []ckpt.SectionDigest) {
	t.Helper()
	s, err := sim.New(cfg, buildSpec(t, pc))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, s.ComponentDigests()
}

// TestCheckpointCrossSampleEvery checkpoints a run at one sampling
// period and audits it at another. SampleEvery is excluded from the
// checkpoint's config fingerprint (sampling only reads), so the
// checkpoint must pass Audit's byte-exact section comparison, and the
// audited run must finish bit-identical to the uninterrupted unsampled
// reference in everything but the series. The case is a multi-wave
// grid, emulated ahead of dispatch, so the trails subtest also checks
// that emulating ahead leaves a digest trail a function of the cycle
// alone: two runs and two sampling periods write it byte for byte, and
// it passes its own audit.
func TestCheckpointCrossSampleEvery(t *testing.T) {
	pc := pagingCase()
	base := caseConfig(pc, excep.ModePrecise)
	refR, refD := runWithDigests(t, pc, base)
	at := refR.Cycles / 2
	withEvery := func(every int64) config.Config {
		cfg := base
		cfg.SampleEvery = every
		return cfg
	}
	if wave := refR.Occupancy * base.System.NumSMs; wave >= refR.Blocks {
		t.Fatalf("%d blocks fit one wave of %d: nothing is emulated ahead", refR.Blocks, wave)
	}

	t.Run("trails", func(t *testing.T) {
		trail := func(every int64) (string, map[string][]byte) {
			s, err := sim.New(withEvery(every), buildSpec(t, pc))
			if err != nil {
				t.Fatal(err)
			}
			s.CheckpointEvery = refR.Cycles / 8
			s.CheckpointDir = t.TempDir()
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(s.CheckpointDir)
			if err != nil {
				t.Fatal(err)
			}
			files := make(map[string][]byte)
			for _, e := range entries {
				if files[e.Name()], err = os.ReadFile(filepath.Join(s.CheckpointDir, e.Name())); err != nil {
					t.Fatal(err)
				}
			}
			if len(files) < 4 {
				t.Fatalf("trail holds %d checkpoints, want at least 4", len(files))
			}
			return s.CheckpointDir, files
		}
		dir, ref := trail(0)
		for _, every := range []int64{0, 1000} {
			if _, got := trail(every); !reflect.DeepEqual(got, ref) {
				t.Errorf("trail at SampleEvery=%d differs from the first unsampled run's", every)
			}
		}
		ckpts, skipped, err := ckpt.ReadTrail(dir)
		if err != nil || len(skipped) > 0 {
			t.Fatalf("read trail: %v, skipped %v", err, skipped)
		}
		s, err := sim.New(base, buildSpec(t, pc))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Audit(ckpts...); err != nil {
			t.Fatalf("trail fails its own audit: %v", err)
		}
		if r, err := s.Run(); err != nil || !reflect.DeepEqual(r, refR) {
			t.Errorf("audited run: %v, result equal to the reference: %v", err, reflect.DeepEqual(r, refR))
		}
	})

	for _, dir := range []struct {
		name       string
		save, load int64
	}{
		{"sampled-to-unsampled", 1000, 0},
		{"unsampled-to-sampled", 0, 1000},
	} {
		dir := dir
		t.Run(dir.name, func(t *testing.T) {
			s, err := sim.New(withEvery(dir.save), buildSpec(t, pc))
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
				t.Fatalf("finished at cycle %d before snapshot cycle %d", s.Cycle(), at)
			}
			if got := s.Series().N > 0; got != (dir.save > 0) {
				t.Fatalf("saving run sampled = %v, want %v", got, dir.save > 0)
			}
			ck := s.Capture()

			r, err := sim.New(withEvery(dir.load), buildSpec(t, pc))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Audit(ck); err != nil {
				t.Fatalf("audit at SampleEvery=%d: %v", dir.load, err)
			}
			gotR, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := gotR.Series.N > 0; got != (dir.load > 0) {
				t.Fatalf("audited run sampled = %v, want %v", got, dir.load > 0)
			}
			if gotR.Cycles != refR.Cycles {
				t.Errorf("%d cycles, reference %d", gotR.Cycles, refR.Cycles)
			}
			unsampled := *gotR
			unsampled.Series = refR.Series
			if !reflect.DeepEqual(&unsampled, refR) {
				t.Errorf("audited result diverged from the reference:\n got %+v\nwant %+v", &unsampled, refR)
			}
			if gotD := r.ComponentDigests(); !reflect.DeepEqual(gotD, refD) {
				t.Errorf("component digests diverged from the reference:\n got %v\nwant %v", gotD, refD)
			}
		})
	}
}

// TestFingerprintConfigExclusions pins FingerprintConfig's exclusion
// rule from both sides: the sampling period does not reach the
// fingerprint, and a model field does.
func TestFingerprintConfigExclusions(t *testing.T) {
	base := config.Default()
	fp := sim.FingerprintConfig(base)

	sampled := base
	sampled.SampleEvery = 1000
	if sim.FingerprintConfig(sampled) != fp {
		t.Error("SampleEvery changed the config fingerprint")
	}

	scheme := base
	scheme.Scheme = config.OperandLog
	if scheme.Scheme == base.Scheme {
		t.Fatal("test needs a non-default scheme")
	}
	if sim.FingerprintConfig(scheme) == fp {
		t.Error("Scheme did not change the config fingerprint")
	}
}
