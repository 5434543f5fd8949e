package sim

import (
	"testing"

	"gpues/internal/config"
	"gpues/internal/excep"
	"gpues/internal/vm"
)

// trialMaxCycles and trialBounds keep runaway flip trials (hung loops,
// corrupted schedules) short enough for a unit test.
const trialMaxCycles = 500_000

var trialBounds = TrialOptions{MaxWarpInsts: 1 << 16}

func runTrial(t *testing.T, seed int64, rate float64, protect int) *Trial {
	t.Helper()
	cfg := config.Default()
	cfg.MaxCycles = trialMaxCycles
	cfg.Excep.Flip = excep.FlipConfig{Seed: seed, Rate: rate, ProtectThreads: protect}
	spec := testSpec(t, 4, 64, vm.RegionGPUInit, vm.RegionGPUInit)
	tr, err := RunResilienceTrial(cfg, spec, trialBounds)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return tr
}

// TestTrialOutcomeExclusive is the classification property: every
// trial lands in exactly one outcome class, and each class is backed
// by the evidence that defines it — mismatches for SDC, a structured
// exception for the exception class, a terminal error for hangs and
// crashes, and neither for masked runs.
func TestTrialOutcomeExclusive(t *testing.T) {
	counts := make([]int, excep.NumOutcomes)
	const trials = 16
	for seed := int64(1); seed <= trials; seed++ {
		tr := runTrial(t, seed, 0.002, 0)
		if tr.Outcome >= excep.NumOutcomes {
			t.Fatalf("seed %d: outcome %d out of range", seed, tr.Outcome)
		}
		counts[tr.Outcome]++
		switch tr.Outcome {
		case excep.OutcomeMasked:
			if tr.Err != nil || len(tr.Mismatches) != 0 || tr.Excep != nil {
				t.Errorf("seed %d: masked trial carries evidence of another class: %+v", seed, tr)
			}
		case excep.OutcomeSDC:
			if tr.Err != nil || len(tr.Mismatches) == 0 || tr.Excep != nil {
				t.Errorf("seed %d: sdc trial without mismatches (or with an error): %+v", seed, tr)
			}
		case excep.OutcomeException:
			if tr.Err == nil || tr.Excep == nil || len(tr.Excep.Records) == 0 {
				t.Errorf("seed %d: exception trial without a structured exception: %+v", seed, tr)
			}
		case excep.OutcomeHang, excep.OutcomeCrash:
			if tr.Err == nil || tr.Excep != nil {
				t.Errorf("seed %d: %v trial without a terminal error: %+v", seed, tr.Outcome, tr)
			}
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != trials {
		t.Errorf("classified %d outcomes over %d trials, want exactly one each", total, trials)
	}
	t.Logf("outcome counts: masked=%d sdc=%d exception=%d crash=%d hang=%d",
		counts[excep.OutcomeMasked], counts[excep.OutcomeSDC],
		counts[excep.OutcomeException], counts[excep.OutcomeCrash], counts[excep.OutcomeHang])
}

// TestTrialClassificationStable reruns every seed and requires the
// bit-identical classification tuple.
func TestTrialClassificationStable(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		a := runTrial(t, seed, 0.002, 0)
		b := runTrial(t, seed, 0.002, 0)
		if a.Outcome != b.Outcome || a.Flips != b.Flips || a.Cycles != b.Cycles {
			t.Errorf("seed %d not reproducible: (%v,%d,%d) vs (%v,%d,%d)",
				seed, a.Outcome, a.Flips, a.Cycles, b.Outcome, b.Flips, b.Cycles)
		}
	}
}

// TestProtectAllThreadsMasks turns the partial-protection knob to the
// whole block: no flips inject, and the run must classify as masked.
func TestProtectAllThreadsMasks(t *testing.T) {
	tr := runTrial(t, 3, 0.01, 64) // 64 threads/block, all protected
	if tr.Flips != 0 {
		t.Errorf("fully protected trial injected %d flips", tr.Flips)
	}
	if tr.Outcome != excep.OutcomeMasked {
		t.Errorf("fully protected trial classified %v, want masked", tr.Outcome)
	}
}

// TestProtectionMonotone checks the knob's direction: protecting more
// threads never injects more flips at the same seed and rate.
func TestProtectionMonotone(t *testing.T) {
	prev := int64(-1)
	for _, protect := range []int{64, 32, 0} {
		tr := runTrial(t, 5, 0.005, protect)
		if prev >= 0 && tr.Flips < prev {
			t.Errorf("protect=%d injected %d flips, fewer than a stronger protection's %d",
				protect, tr.Flips, prev)
		}
		prev = tr.Flips
	}
}
