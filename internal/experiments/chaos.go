package experiments

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"gpues/internal/chaos"
	"gpues/internal/config"
	"gpues/internal/sim"
	"gpues/internal/workloads"
)

// chaosLevel is the preset injection aggressiveness of the sweep:
// level 2 adds transient walk faults and issue back-pressure on top of
// timing noise without degenerating into a pure fault storm.
const chaosLevel = 2

// chaosSeed derives a stable per-cell seed so the sweep is reproducible
// run to run.
func chaosSeed(bench, col string) int64 {
	h := fnv.New64a()
	h.Write([]byte(bench))
	h.Write([]byte{0})
	h.Write([]byte(col))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// Chaos sweeps the preemptible schemes under deterministic fault
// injection: each benchmark runs demand paging with block switching,
// once clean and once under a level-2 chaos plan. The reported metric
// is the chaos run's slowdown over the clean run; every chaos run is
// checked against the functional oracle and the structural invariants,
// so the sweep doubles as a restartability regression test.
func Chaos(opt Options) (*Result, error) {
	opt = opt.normalize()
	benches := opt.parboil()
	schemes := []config.Scheme{
		config.WarpDisableCommit, config.WarpDisableLastCheck,
		config.ReplayQueue, config.OperandLog,
	}

	type cell struct {
		bench, col string
		slowdown   float64
		err        error
	}
	sem := make(chan struct{}, opt.Parallelism)
	results := make(chan cell, len(benches)*len(schemes))
	var wg sync.WaitGroup
	var done atomic.Int64
	// Campaign progress counts clean/chaos halves: two per cell.
	total := len(benches) * len(schemes) * 2
	for _, bench := range benches {
		for _, scheme := range schemes {
			bench, scheme := bench, scheme
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				col := scheme.String()
				cfg := config.Default()
				cfg.Scheme = scheme
				cfg.DemandPaging = true
				cfg.Scheduler.Enabled = true
				if opt.SampleEvery > 0 {
					cfg.SampleEvery = opt.SampleEvery
				}

				run := func(plan *chaos.Plan) (int64, error) {
					spec, err := workloads.Build(bench,
						workloads.Params{Scale: opt.Scale, Placement: workloads.DemandPaging()})
					if err != nil {
						return 0, err
					}
					cr, err := sim.RunChaos(cfg, spec, plan)
					if err != nil {
						return 0, err
					}
					if !cr.OracleOK() {
						return 0, fmt.Errorf("memory diverged from oracle (%d mismatches, first at %#x)",
							len(cr.Mismatches), cr.Mismatches[0].Addr)
					}
					return cr.Cycles, nil
				}

				// The oracle check needs the full memory trajectory, so
				// each half runs whole; done-files make a killed sweep
				// resume at clean/chaos-run granularity.
				resumable := func(suffix string, plan *chaos.Plan) (int64, error) {
					j := runJob{bench: bench, col: col + "-" + suffix}
					if opt.ResumeDir != "" {
						if cycles, ok := readDone(opt, "chaos", j); ok {
							if opt.Progress != nil {
								opt.Progress(fmt.Sprintf("%-14s %-14s %12d cycles (done, skipped)",
									bench, j.col, cycles))
							}
							opt.campaignStep(&done, total,
								fmt.Sprintf("%s/%s %d cycles (done, skipped)", bench, j.col, cycles))
							return cycles, nil
						}
					}
					cycles, err := run(plan)
					if err != nil {
						return 0, err
					}
					if opt.ResumeDir != "" {
						if err := writeDone(opt, "chaos", j, cycles); err != nil {
							return 0, fmt.Errorf("recording completion: %w", err)
						}
					}
					opt.campaignStep(&done, total,
						fmt.Sprintf("%s/%s %d cycles", bench, j.col, cycles))
					return cycles, nil
				}

				clean, err := resumable("clean", nil)
				if err != nil {
					results <- cell{bench, col, 0, fmt.Errorf("%s/%s clean: %w", bench, col, err)}
					return
				}
				plan, err := chaos.ForLevel(chaosLevel, chaosSeed(bench, col))
				if err != nil {
					results <- cell{bench, col, 0, err}
					return
				}
				stormy, err := resumable("chaos", plan)
				if err != nil {
					results <- cell{bench, col, 0, fmt.Errorf("%s/%s chaos: %w", bench, col, err)}
					return
				}
				if opt.Progress != nil {
					opt.Progress(fmt.Sprintf("%-14s %-14s clean=%d chaos=%d (%s)",
						bench, col, clean, stormy, plan.Summary()))
				}
				results <- cell{bench, col, float64(stormy) / float64(clean), nil}
			}()
		}
	}
	wg.Wait()
	close(results)

	values := make(map[string]map[string]float64)
	for c := range results {
		if c.err != nil {
			return nil, c.err
		}
		if values[c.bench] == nil {
			values[c.bench] = make(map[string]float64)
		}
		values[c.bench][c.col] = c.slowdown
	}

	res := &Result{
		ID:      "chaos",
		Title:   fmt.Sprintf("Slowdown under level-%d deterministic fault injection (oracle-checked)", chaosLevel),
		Metric:  "chaos cycles / clean cycles, lower is better",
		Geomean: map[string]float64{},
	}
	for _, s := range schemes {
		res.Columns = append(res.Columns, s.String())
	}
	for _, bench := range benches {
		res.Rows = append(res.Rows, Row{Benchmark: bench, Values: values[bench]})
	}
	for _, c := range res.Columns {
		res.Geomean[c] = geomean(res.Rows, c)
	}
	return res, nil
}
