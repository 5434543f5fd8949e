// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): the fault-free cost of the exception schemes
// (Figures 10 and 11), the operand log overheads (Table 2), thread
// block switching under demand paging (Figure 12) and GPU-local fault
// handling (Figures 13 and 14). Table 1 is the configuration itself.
// Run executes entries of one catalogue by name and returns one
// Document, which renders as text or marshals as JSON.
package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gpues/internal/atomicio"
	"gpues/internal/chaos"
	"gpues/internal/ckpt"
	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/excep"
	"gpues/internal/obs"
	"gpues/internal/sim"
	"gpues/internal/workloads"
)

// Options configures an experiment run.
type Options struct {
	// Scale is the workload dataset scale (1 = small/CI, 2-4 = paper
	// runs).
	Scale int
	// Benchmarks restricts the benchmark set (nil = the figure's full
	// suite).
	Benchmarks []string
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Progress, when set, receives (done, total, line) after every
	// finished simulation of a campaign: a figure run, a clean or chaos
	// half of the chaos sweep, or a resilience trial. Calls never
	// overlap. The live introspection server's SetCampaign has this
	// shape.
	Progress func(done, total int, line string)
	// TraceDir, when set, writes one Chrome trace JSON per simulation
	// into the directory as <bench>-<column>.trace.json.
	TraceDir string
	// TraceFilter selects the traced event kinds (obs.ParseFilter
	// syntax; empty records everything).
	TraceFilter string
	// ResumeDir, when set, makes the campaign crash-recoverable: a finished
	// run records its cycle count as <key>.done.json and is skipped by later
	// invocations; a run a kill interrupted simulates again from the start.
	// The key names what is simulated, never the figure: sim.RunKey of the
	// config and workload image, plus the chaos plan for a chaos-sweep half.
	// So identical runs in different figures share one record, and a changed
	// config, scale, workload or plan misses. Records named
	// <fig>-<bench>-<col>.done.json by older versions are ignored, and those
	// runs rerun. A record carries no binary identity: after a timing-code
	// change that leaves Config and the workload images alone, use a fresh
	// directory. Resilience trials are never recorded.
	ResumeDir string
	// Trials is the seeded trial count per resilience-campaign cell
	// (0 = the campaign default; other sweeps ignore it).
	Trials int
	// FlipSeed, when non-zero, pins the resilience campaign's base seed
	// for every cell (CI pinning); 0 derives a stable one per cell.
	FlipSeed int64
	// FlipRate, when positive, overrides the resilience campaign's flip
	// probability.
	FlipRate float64
	// ProtectPin, when set, replaces the resilience campaign's
	// protection ladder with the single absolute per-block thread count
	// in ProtectThreads.
	ProtectPin     bool
	ProtectThreads int
	// ExcepMode is the exception delivery mode during resilience trials
	// (the zero value is precise; preemptible switches trials to the
	// replay-queue scheme).
	ExcepMode excep.Mode
}

func (o Options) normalize() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Result is one regenerated table or figure: rows are benchmarks,
// columns are configurations, values are the figure's metric
// (normalized performance or speedup).
type Result struct {
	ID      string
	Title   string
	Metric  string
	Columns []string
	Rows    []Row
	// Geomean per column, as the paper reports.
	Geomean map[string]float64
}

// Row is one benchmark's results.
type Row struct {
	Benchmark string
	Values    map[string]float64
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s (%s)\n", r.ID, r.Title, r.Metric)
	fmt.Fprintf(&sb, "%-14s", "benchmark")
	for _, c := range r.Columns {
		fmt.Fprintf(&sb, " %12s", c)
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-14s", row.Benchmark)
		for _, c := range r.Columns {
			fmt.Fprintf(&sb, " %12.3f", row.Values[c])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%-14s", "geomean")
	for _, c := range r.Columns {
		fmt.Fprintf(&sb, " %12.3f", r.Geomean[c])
	}
	sb.WriteByte('\n')
	return sb.String()
}

// geomean computes the geometric mean of the column across rows.
func geomean(rows []Row, col string) float64 {
	logSum, n := 0.0, 0
	for _, r := range rows {
		v := r.Values[col]
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// job is one simulation of a campaign. row and col name the result
// cell it fills. bench, cfg and place, plus chaos for an oracle-checked
// run, are what is simulated; only they make up its resume key, so
// identical runs in different figures share one record.
type job struct {
	row, col string
	bench    string
	cfg      config.Config
	place    workloads.Placement
	// oracle fails the job if its final memory diverges from the
	// functional oracle: one half of a chaos-sweep cell, run under a
	// fresh plan of chaos (nil for the clean half).
	oracle bool
	chaos  *chaos.Config
	// protect, when set, makes the job one bit-flip resilience trial
	// that shields protect(threads per block) threads of every block.
	// Trials are never recorded.
	protect func(tpb int) int
}

// build builds the job's workload afresh (runs mutate the functional
// memory, so every attempt needs its own image).
func (o Options) build(j job) (sim.LaunchSpec, error) {
	return workloads.Build(j.bench, workloads.Params{Scale: o.Scale, Placement: j.place})
}

// key names what the job simulates: sim.RunKey of its config and
// workload image, plus the chaos plan's configuration for an
// oracle-checked run (the zero configuration for a clean one), so a
// record never satisfies a run that differs in any of them.
func (j job) key(spec sim.LaunchSpec) string {
	key := sim.RunKey(j.cfg, spec)
	if j.oracle {
		var pc chaos.Config
		if j.chaos != nil {
			pc = *j.chaos
		}
		key += fmt.Sprintf("-plan%016x", ckpt.Digest([]byte(fmt.Sprintf("%#v", pc))))
	}
	return key
}

// runAll runs the jobs on Options.Parallelism workers and returns what
// each measured, keyed by row and column: its cycles, or a trial's
// excep.Outcome. Every finished job is reported to Progress, one call
// at a time. The first failure stops the campaign: no job starts after
// it, and runAll returns once the running ones end. With
// Options.ResumeDir set, a job whose record exists is not simulated and
// a finished job is recorded, so a killed campaign re-invoked with the
// same options continues where it stopped.
func runAll(opt Options, jobs []job) (map[string]map[string]int64, error) {
	opt = opt.normalize()
	vals := make([]int64, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var failed atomic.Bool
	done := 0
	for w := 0; w < opt.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if failed.Load() {
					continue
				}
				j := jobs[i]
				v, line, err := opt.runJob(j)
				if err != nil {
					errs[i] = fmt.Errorf("%s/%s: %w", j.row, j.col, err)
					failed.Store(true)
					continue
				}
				vals[i] = v
				mu.Lock()
				done++
				if opt.Progress != nil {
					opt.Progress(done, len(jobs), line)
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < len(jobs) && !failed.Load(); i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	out := make(map[string]map[string]int64)
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if out[j.row] == nil {
			out[j.row] = make(map[string]int64)
		}
		out[j.row][j.col] = vals[i]
	}
	return out, nil
}

// runJob runs one job, or reads its record, and returns its
// measurement and progress line.
func (o Options) runJob(j job) (int64, string, error) {
	spec, err := o.build(j)
	if err != nil {
		return 0, "", err
	}
	if j.protect != nil {
		j.cfg.Excep.Flip.ProtectThreads = j.protect(spec.Launch.ThreadsPerBlock())
		tr, err := sim.RunResilienceTrial(j.cfg, spec, sim.TrialOptions{MaxWarpInsts: resilienceWarpInsts})
		if err != nil {
			return 0, "", err
		}
		return int64(tr.Outcome), fmt.Sprintf("%-20s %s: %-9v flips=%d cycles=%d",
			j.row, j.col, tr.Outcome, tr.Flips, tr.Cycles), nil
	}
	var key string
	var rec struct {
		Cycles int64 `json:"cycles"`
	}
	if o.ResumeDir != "" {
		key = j.key(spec)
		// A torn or malformed record reads as absent: the job reruns.
		if atomicio.ReadJSON(filepath.Join(o.ResumeDir, key+".done.json"), &rec) == nil && rec.Cycles > 0 {
			return rec.Cycles, fmt.Sprintf("%-14s %-14s %12d cycles (done, skipped)", j.row, j.col, rec.Cycles), nil
		}
	}
	var note string
	if rec.Cycles, note, err = o.runOne(j, spec); err != nil {
		return 0, "", err
	}
	if key != "" {
		if err := atomicio.WriteJSON(filepath.Join(o.ResumeDir, key+".done.json"), rec); err != nil {
			return 0, "", fmt.Errorf("recording completion: %w", err)
		}
	}
	return rec.Cycles, fmt.Sprintf("%-14s %-14s %12d cycles", j.row, j.col, rec.Cycles) + note, nil
}

// runOne runs one job, attaching a fresh chaos plan and a tracer as
// the job and options ask, and checks an oracle job's final memory. The
// note tells of the injected faults.
func (o Options) runOne(j job, spec sim.LaunchSpec) (cycles int64, note string, err error) {
	var mask uint64
	if o.TraceDir != "" {
		if mask, err = obs.ParseFilter(o.TraceFilter); err != nil {
			return 0, "", err
		}
	}
	s, err := sim.New(j.cfg, spec)
	if err != nil {
		return 0, "", err
	}
	var (
		plan    *chaos.Plan
		tr      *obs.Tracer
		initial *emu.Memory
	)
	if j.oracle {
		initial = spec.Memory.Clone()
	}
	if j.chaos != nil {
		plan = chaos.New(*j.chaos)
		s.AttachChaos(plan)
	}
	if o.TraceDir != "" {
		tr = obs.New(obs.Options{Filter: mask})
		s.AttachTracer(tr)
	}
	r, runErr := s.Run()
	if o.TraceDir != "" {
		// Export even when the run failed — a failed run's trace is the
		// most useful one. The run error still wins the return.
		path := filepath.Join(o.TraceDir, fmt.Sprintf("%s-%s.trace.json", j.row, j.col))
		werr := func() error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			err = tr.WriteChrome(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		}()
		if runErr == nil && werr != nil {
			return 0, "", werr
		}
	}
	if runErr != nil {
		return 0, "", runErr
	}
	if j.oracle {
		mis, err := sim.CheckOracle(spec.Launch, initial, spec.Memory, j.cfg.SM.L1LineB)
		if err != nil {
			return 0, "", err
		}
		if len(mis) > 0 {
			return 0, "", fmt.Errorf("memory diverged from oracle (%d mismatches, first at %#x)",
				len(mis), mis[0].Addr)
		}
	}
	if plan != nil {
		note = " (" + plan.Summary() + ")"
	}
	return r.Cycles, note, nil
}

// cellSeed derives a stable seed for one cell of a seeded sweep (the
// chaos plan, the resilience campaign's base flip seed), so the sweep
// is reproducible run to run.
func cellSeed(bench, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(bench))
	h.Write([]byte{0})
	h.Write([]byte(label))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// at names one run of a campaign by its row and column labels.
type at struct{ row, col string }

// ratios fills res, whose Columns are set, with one Row per label in
// rows and each column's geomean. The value at (row, col) is
// cycles[num] / cycles[den] for the two runs pick(row, col) names; it
// is left out when either run is missing.
func ratios(res *Result, rows []string, cycles map[string]map[string]int64,
	pick func(row, col string) (num, den at)) *Result {
	res.Geomean = map[string]float64{}
	for _, label := range rows {
		row := Row{Benchmark: label, Values: map[string]float64{}}
		for _, col := range res.Columns {
			num, den := pick(label, col)
			if n, d := cycles[num.row][num.col], cycles[den.row][den.col]; n > 0 && d > 0 {
				row.Values[col] = float64(n) / float64(d)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	for _, col := range res.Columns {
		res.Geomean[col] = geomean(res.Rows, col)
	}
	return res
}

// sorted returns a sorted copy of names.
func sorted(names []string) []string {
	names = append([]string(nil), names...)
	sort.Strings(names)
	return names
}

func (o Options) parboil() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return workloads.Names("parboil")
}

// fig10 regenerates Figure 10: performance of wd-commit, wd-lastcheck
// and replay-queue relative to the stall-on-fault baseline on
// fault-free (fully resident) runs.
func fig10(opt Options) (*Result, error) {
	benches := opt.parboil()
	schemes := []config.Scheme{
		config.Baseline, config.WarpDisableCommit,
		config.WarpDisableLastCheck, config.ReplayQueue,
	}
	var jobs []job
	for _, bench := range benches {
		for _, s := range schemes {
			cfg := config.Default()
			cfg.Scheme = s
			jobs = append(jobs, job{row: bench, col: s.String(), bench: bench, cfg: cfg, place: workloads.Resident()})
		}
	}
	cycles, err := runAll(opt, jobs)
	if err != nil {
		return nil, err
	}
	return ratios(&Result{ID: "fig10", Title: "Performance of warp disable and replay queue pipelines",
		Metric: "normalized to baseline, higher is better", Columns: []string{"wd-commit", "wd-lastcheck", "replay-queue"}},
		sorted(benches), cycles, func(row, col string) (at, at) { return at{row, "baseline"}, at{row, col} }), nil
}

// fig11 regenerates Figure 11: operand log performance at 8, 16, 20 and
// 32 KB log sizes, relative to the baseline.
func fig11(opt Options) (*Result, error) {
	benches := opt.parboil()
	var jobs []job
	for _, bench := range benches {
		jobs = append(jobs, job{row: bench, col: "baseline", bench: bench, cfg: config.Default(), place: workloads.Resident()})
		for _, kb := range []int{8, 16, 20, 32} {
			cfg := config.Default()
			cfg.Scheme = config.OperandLog
			cfg.SM.OperandLog.SizeKB = kb
			jobs = append(jobs, job{row: bench, col: fmt.Sprintf("log-%dKB", kb), bench: bench, cfg: cfg, place: workloads.Resident()})
		}
	}
	cycles, err := runAll(opt, jobs)
	if err != nil {
		return nil, err
	}
	return ratios(&Result{ID: "fig11", Title: "Performance of the operand log scheme by log size",
		Metric: "normalized to baseline, higher is better", Columns: []string{"log-8KB", "log-16KB", "log-20KB", "log-32KB"}},
		sorted(benches), cycles, func(row, col string) (at, at) { return at{row, "baseline"}, at{row, col} }), nil
}

// link is one CPU-GPU interconnect the use-case figures compare.
type link struct {
	name string
	cfg  config.InterconnectConfig
}

var links = []link{{"nvlink", config.NVLinkConfig()}, {"pcie", config.PCIeConfig()}}

// fig12 regenerates Figure 12: speedup from thread block switching on
// fault under on-demand paging, for NVLink and PCIe, with normal and
// ideal (1-cycle) context switching; relative to the same system
// without switching.
func fig12(opt Options) (*Result, error) {
	benches := opt.parboil()
	var jobs []job
	for _, bench := range benches {
		for _, l := range links {
			base := config.Default()
			base.Scheme = config.ReplayQueue
			base.DemandPaging = true
			base.Link = l.cfg
			sw := base
			sw.Scheduler.Enabled = true
			ideal := sw
			ideal.Scheduler.IdealContextSwitch = true
			jobs = append(jobs,
				job{row: bench, col: l.name + "-base", bench: bench, cfg: base, place: workloads.DemandPaging()},
				job{row: bench, col: l.name, bench: bench, cfg: sw, place: workloads.DemandPaging()},
				job{row: bench, col: l.name + "-ideal", bench: bench, cfg: ideal, place: workloads.DemandPaging()})
		}
	}
	cycles, err := runAll(opt, jobs)
	if err != nil {
		return nil, err
	}
	// Each link normalizes to its own no-switching base.
	return ratios(&Result{ID: "fig12", Title: "Thread block switching on fault vs. no switching",
		Metric: "speedup over no-switching, higher is better", Columns: []string{"nvlink", "nvlink-ideal", "pcie", "pcie-ideal"}},
		sorted(benches), cycles, func(row, col string) (at, at) {
			return at{row, strings.TrimSuffix(col, "-ideal") + "-base"}, at{row, col}
		}), nil
}

// localHandlingFigure shares the Figure 13/14 machinery: speedup of
// GPU-local fault handling over CPU handling for lazily allocated
// pages, per interconnect.
func localHandlingFigure(opt Options, id, title string, benches []string) (*Result, error) {
	var jobs []job
	for _, bench := range benches {
		for _, l := range links {
			cpu := config.Default()
			cpu.Scheme = config.ReplayQueue
			cpu.Link = l.cfg
			gpu := cpu
			gpu.Local.Enabled = true
			jobs = append(jobs,
				job{row: bench, col: l.name + "-cpu", bench: bench, cfg: cpu, place: workloads.LazyOutput()},
				job{row: bench, col: l.name + "-gpu", bench: bench, cfg: gpu, place: workloads.LazyOutput()})
		}
	}
	cycles, err := runAll(opt, jobs)
	if err != nil {
		return nil, err
	}
	// The numerator is the CPU-handled run, the denominator the GPU one.
	return ratios(&Result{ID: id, Title: title,
		Metric: "speedup of GPU-local handling over CPU handling, higher is better", Columns: []string{"nvlink", "pcie"}},
		sorted(benches), cycles, func(row, col string) (at, at) { return at{row, col + "-cpu"}, at{row, col + "-gpu"} }), nil
}

// fig13 regenerates Figure 13: local handling of faults to pages
// backing dynamic (device-malloc) allocations, on the Halloc suite and
// the quad-tree port.
func fig13(opt Options) (*Result, error) {
	benches := opt.Benchmarks
	if len(benches) == 0 {
		benches = append(workloads.Names("halloc"), workloads.Names("sdk")...)
	}
	return localHandlingFigure(opt, "fig13",
		"Local handling of faults to dynamically allocated pages", benches)
}

// fig14 regenerates Figure 14: local handling of faults to kernel
// output pages across the Parboil suite.
func fig14(opt Options) (*Result, error) {
	return localHandlingFigure(opt, "fig14",
		"Local handling of faults to output pages", opt.parboil())
}
