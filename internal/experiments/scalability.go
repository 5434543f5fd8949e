package experiments

import (
	"fmt"

	"gpues/internal/config"
	"gpues/internal/workloads"
)

// This file implements the Section 5.5 scalability discussion as
// experiments: how the scheme costs and the two use cases respond to
// the number of SMs — and the ablation sweeps over the design
// parameters DESIGN.md calls out (switch threshold, extra block budget,
// handler concurrency, fault handling granularity).

// smCounts are the GPU sizes swept by the scalability experiments.
var smCounts = []int{4, 8, 16, 32}

// smRows returns the scalability experiments' row labels.
func smRows() []string {
	rows := make([]string, len(smCounts))
	for i, sms := range smCounts {
		rows[i] = fmt.Sprintf("%d-SMs", sms)
	}
	return rows
}

// scalability measures, as the GPU grows on fixed-size workloads, the
// performance of the preemptible schemes relative to the baseline and
// use case 2's speedup. Section 5.5: when the workload does not scale
// with the GPU (occupancy drops), the gap between the schemes widens;
// local handling improves with the number of SMs, because it decreases
// the contention of the CPU and the interconnect.
func scalability(opt Options) (Section, error) {
	// The scheme-sensitive benchmark and the allocation benchmark.
	schemeBench, localBench := "lbm", "halloc-spree"
	if len(opt.Benchmarks) == 1 {
		schemeBench, localBench = opt.Benchmarks[0], opt.Benchmarks[0]
	}
	schemes := []config.Scheme{
		config.Baseline, config.WarpDisableCommit,
		config.WarpDisableLastCheck, config.ReplayQueue,
	}
	var jobs []job
	for i, row := range smRows() {
		for _, s := range schemes {
			cfg := config.Default()
			cfg.System.NumSMs = smCounts[i]
			cfg.Scheme = s
			jobs = append(jobs, job{row: row, col: s.String(), bench: schemeBench, cfg: cfg, place: workloads.Resident()})
		}
	}
	for i, row := range smRows() {
		cpu := config.Default()
		cpu.System.NumSMs = smCounts[i]
		cpu.Scheme = config.ReplayQueue
		gpu := cpu
		gpu.Local.Enabled = true
		jobs = append(jobs,
			job{row: row, col: "cpu", bench: localBench, cfg: cpu, place: workloads.LazyOutput()},
			job{row: row, col: "gpu-local", bench: localBench, cfg: gpu, place: workloads.LazyOutput()})
	}
	cycles, err := runAll(opt, jobs)
	if err != nil {
		return Section{}, err
	}
	return Section{Results: []*Result{
		ratios(&Result{ID: "scal-schemes", Title: fmt.Sprintf("Scheme cost vs. GPU size (%s, fixed dataset)", schemeBench),
			Metric: "normalized to baseline at the same SM count, higher is better", Columns: []string{"wd-commit", "wd-lastcheck", "replay-queue"}},
			smRows(), cycles, func(row, col string) (at, at) { return at{row, "baseline"}, at{row, col} }),
		ratios(&Result{ID: "scal-local", Title: fmt.Sprintf("Local fault handling vs. GPU size (%s)", localBench),
			Metric: "speedup of GPU-local over CPU handling, higher is better", Columns: []string{"speedup"}},
			smRows(), cycles, func(row, _ string) (at, at) { return at{row, "cpu"}, at{row, "gpu-local"} }),
	}}, nil
}

// ablations runs the design-parameter sweeps: each Result isolates one
// knob of the paper's mechanisms.
func ablations(opt Options) (Section, error) {
	paging := func(cfg *config.Config) {
		cfg.Scheme = config.ReplayQueue
		cfg.DemandPaging = true
	}
	sweeps := []struct {
		id, title, metric, bench string
		place                    workloads.Placement
		values                   []int
		mut                      func(*config.Config, int)
		// baseRow is the row every other row is relative to; base, when
		// set, adds it as a run of its own.
		baseRow string
		base    func(*config.Config)
	}{
		// 1. Switch threshold (use case 1): how aggressive should the
		// local scheduler be about switching on a queued fault?
		{"switch-threshold", "Block switching threshold (sgemm, demand paging, NVLink)",
			"speedup over no-switching", "sgemm", workloads.DemandPaging(),
			[]int{0, 1, 2, 4},
			func(cfg *config.Config, v int) {
				paging(cfg)
				cfg.Scheduler.Enabled = true
				cfg.Scheduler.SwitchThreshold = v
			},
			"base", paging},
		// 2. Extra block budget (use case 1): the paper allows 4
		// off-chip blocks per SM.
		{"extra-blocks", "Extra off-chip blocks per SM (sgemm, demand paging, NVLink)",
			"speedup over no-switching", "sgemm", workloads.DemandPaging(),
			[]int{1, 2, 4, 8},
			func(cfg *config.Config, v int) {
				paging(cfg)
				cfg.Scheduler.Enabled = true
				cfg.Scheduler.MaxExtraBlocks = v
			},
			"base", paging},
		// 3. GPU handler concurrency (use case 2): how much parallelism
		// the system-level synchronization permits.
		{"handler-concurrency", "GPU-local handler concurrency (halloc-spree, lazy heap, NVLink)",
			"speedup over CPU handling", "halloc-spree", workloads.LazyOutput(),
			[]int{1, 2, 3, 4, 8},
			func(cfg *config.Config, v int) {
				cfg.Scheme = config.ReplayQueue
				cfg.Local.Enabled = true
				cfg.Local.Concurrency = v
			},
			"base", func(cfg *config.Config) { cfg.Scheme = config.ReplayQueue }},
		// 4. Fault handling granularity (Section 5.1 fixes 64 KB): the
		// prefetch-vs-overfetch trade-off of region size. The base is
		// the 64 KB row.
		{"fault-granularity", "Fault handling granularity in KB (stencil, demand paging, NVLink)",
			"speedup over 64 KB handling", "stencil", workloads.DemandPaging(),
			[]int{16, 64, 256},
			func(cfg *config.Config, v int) {
				paging(cfg)
				cfg.System.FaultGranularity = v * 1024
			},
			"64", nil},
	}
	var out Section
	for _, sw := range sweeps {
		var jobs []job
		var rows []string
		for _, v := range sw.values {
			cfg := config.Default()
			sw.mut(&cfg, v)
			rows = append(rows, fmt.Sprint(v))
			jobs = append(jobs, job{row: fmt.Sprint(v), col: "run", bench: sw.bench, cfg: cfg, place: sw.place})
		}
		if sw.base != nil {
			cfg := config.Default()
			sw.base(&cfg)
			jobs = append(jobs, job{row: sw.baseRow, col: "run", bench: sw.bench, cfg: cfg, place: sw.place})
		}
		cycles, err := runAll(opt, jobs)
		if err != nil {
			return Section{}, err
		}
		out.Results = append(out.Results, ratios(&Result{ID: sw.id, Title: sw.title, Metric: sw.metric, Columns: []string{"speedup"}},
			rows, cycles, func(row, _ string) (at, at) { return at{sw.baseRow, "run"}, at{row, "run"} }))
	}
	return out, nil
}
