// Resilience trials: run a launch under deterministic bit-flip
// injection and classify what the flips did to it. The classifier is
// the contract of the campaign — every trial lands in exactly one
// outcome class, and because the injector, the simulator, and the
// functional oracle are all deterministic, reruns of the same
// (config, spec, seed) reproduce the classification bit for bit.
package sim

import (
	"errors"

	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/excep"
)

// TrialOptions bounds one resilience trial beyond Config.MaxCycles,
// whose overrun classifies as a hang.
type TrialOptions struct {
	// MaxWarpInsts caps functional emulation per warp (0 keeps the
	// emulator default); a flipped loop bound then hangs functionally
	// instead of running for the full default budget.
	MaxWarpInsts int
}

// Trial is one classified flip-injection run.
type Trial struct {
	Outcome excep.Outcome
	// Flips is the number of architectural bit flips injected.
	Flips int64
	// Cycles is the simulated cycle the trial ended at.
	Cycles int64
	// Excep is the structured device exception for OutcomeException.
	Excep *excep.Error
	// Err is the terminal error behind crash and hang outcomes.
	Err error
	// Mismatches is the capped list of corrupted result bytes behind
	// OutcomeSDC.
	Mismatches []emu.Mismatch
}

// RunResilienceTrial runs cfg/spec once — cfg.Excep.Flip chooses the
// flip seed, rate, and thread protection — and classifies the outcome:
//
//	masked     completed, memory byte-identical to the clean oracle
//	sdc        completed, memory differs (silent data corruption)
//	exception  terminated by a device-raised exception
//	hang       stopped making progress (watchdog, cycle cap, deadlock,
//	           or functional non-termination)
//	crash      any other terminal failure
//
// The oracle is a fresh flip-free functional execution of the grid
// from the initial memory image, so masked-vs-SDC is exact, not
// heuristic.
func RunResilienceTrial(cfg config.Config, spec LaunchSpec, opt TrialOptions) (*Trial, error) {
	s, err := New(cfg, spec)
	if err != nil {
		return nil, err
	}
	initial := spec.Memory.Clone()
	if opt.MaxWarpInsts > 0 {
		s.emul.MaxWarpInsts = opt.MaxWarpInsts
	}
	r, runErr := s.Run()
	if r == nil {
		r = s.Collect()
	}
	t := &Trial{Flips: r.Flips, Cycles: r.Cycles, Err: runErr}
	if runErr == nil {
		if t.Mismatches, err = CheckOracle(spec.Launch, initial, spec.Memory, cfg.SM.L1LineB); err != nil {
			return nil, err
		}
		if len(t.Mismatches) == 0 {
			t.Outcome = excep.OutcomeMasked
		} else {
			t.Outcome = excep.OutcomeSDC
		}
		return t, nil
	}
	var ee *excep.Error
	var he *emu.HangError
	var se *StallError
	switch {
	case errors.As(runErr, &ee):
		t.Outcome = excep.OutcomeException
		t.Excep = ee
	case errors.As(runErr, &he):
		t.Outcome = excep.OutcomeHang
	case errors.As(runErr, &se) && stallIsHang(se.Report.Reason):
		t.Outcome = excep.OutcomeHang
	default:
		t.Outcome = excep.OutcomeCrash
	}
	return t, nil
}

// stallIsHang separates non-termination stall reasons from structural
// failures: the former are the hang class, the latter crashes.
func stallIsHang(reason string) bool {
	switch reason {
	case "watchdog", "max-cycles", "deadlock":
		return true
	}
	return false
}
