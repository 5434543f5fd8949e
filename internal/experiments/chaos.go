package experiments

import (
	"fmt"

	"gpues/internal/chaos"
	"gpues/internal/config"
	"gpues/internal/workloads"
)

// chaosLevel is the preset injection aggressiveness of the sweep:
// level 2 adds transient walk faults and issue back-pressure on top of
// timing noise without degenerating into a pure fault storm.
const chaosLevel = 2

// chaosSweep sweeps the preemptible schemes under deterministic fault
// injection: each benchmark runs demand paging with block switching,
// once clean and once under a level-2 chaos plan. The reported metric
// is the chaos run's slowdown over the clean run; every run is checked
// against the functional oracle and the structural invariants, so the
// sweep doubles as a restartability regression test.
func chaosSweep(opt Options) (*Result, error) {
	benches := opt.parboil()
	res := &Result{
		ID:     "chaos",
		Title:  fmt.Sprintf("Slowdown under level-%d deterministic fault injection (oracle-checked)", chaosLevel),
		Metric: "chaos cycles / clean cycles, lower is better",
	}
	var jobs []job
	for _, scheme := range []config.Scheme{
		config.WarpDisableCommit, config.WarpDisableLastCheck,
		config.ReplayQueue, config.OperandLog,
	} {
		col := scheme.String()
		res.Columns = append(res.Columns, col)
		for _, bench := range benches {
			cfg := config.Default()
			cfg.Scheme = scheme
			cfg.DemandPaging = true
			cfg.Scheduler.Enabled = true
			plan, err := chaos.ForLevel(chaosLevel, cellSeed(bench, col))
			if err != nil {
				return nil, err
			}
			pc := plan.Config()
			jobs = append(jobs,
				job{row: bench, col: col + "-clean", bench: bench, cfg: cfg, place: workloads.DemandPaging(), oracle: true},
				job{row: bench, col: col + "-chaos", bench: bench, cfg: cfg, place: workloads.DemandPaging(), oracle: true, chaos: &pc})
		}
	}
	cycles, err := runAll(opt, jobs)
	if err != nil {
		return nil, err
	}
	// The numerator is the chaos half, the denominator the clean one.
	return ratios(res, benches, cycles, func(row, col string) (at, at) {
		return at{row, col + "-chaos"}, at{row, col + "-clean"}
	}), nil
}
