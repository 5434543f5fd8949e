// Command gpusim runs one benchmark kernel through the GPU timing
// simulator and prints its execution statistics.
//
// Examples:
//
//	gpusim -workload sgemm
//	gpusim -workload lbm -scheme replay-queue
//	gpusim -workload stencil -paging -switching -link pcie
//	gpusim -workload halloc-spree -lazy -local
//	gpusim -workload stencil -paging -switching -trace run.trace.json -trace-filter fault,switch,migrate,replay
//	gpusim -workload sgemm -metrics metrics.csv
//	gpusim -list
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gpues"
	"gpues/internal/obsrv"
	"gpues/internal/prof"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list available workloads and exit")
		workload  = flag.String("workload", "sgemm", "workload to run (see -list)")
		schemeStr = flag.String("scheme", "baseline", "pipeline scheme: baseline, wd-commit, wd-lastcheck, replay-queue, operand-log")
		scale     = flag.Int("scale", 1, "dataset scale factor")
		linkStr   = flag.String("link", "nvlink", "CPU-GPU interconnect: nvlink or pcie")
		paging    = flag.Bool("paging", false, "start data in CPU memory (on-demand paging)")
		lazy      = flag.Bool("lazy", false, "leave output/heap pages unallocated (lazy allocation)")
		switching = flag.Bool("switching", false, "enable thread block switching on fault (use case 1)")
		local     = flag.Bool("local", false, "handle allocation-only faults on the GPU (use case 2)")
		logKB     = flag.Int("log-kb", 16, "operand log size in KB (operand-log scheme)")
		maxCycles = flag.Int64("max-cycles", 0, "abort with a stall report after this many cycles (0 = default)")
		chaosLvl  = flag.Int("chaos-level", 0, "fault-injection level: 0 none, 1 timing noise, 2 transient faults, 3 fault storm")
		chaosSeed = flag.Int64("chaos-seed", 1, "fault-injection RNG seed (with -chaos-level)")
		verbose   = flag.Bool("v", false, "print per-SM statistics")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file after the run")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file (.bin for the compact binary format); view in Perfetto")
		traceFlt  = flag.String("trace-filter", "", "comma-separated event kinds or groups to record (all, pipeline, stall, fault, replay, switch, migrate, local); empty records everything")
		metricsFn = flag.String("metrics", "", "write the metrics registry snapshot to this file (.csv for CSV, otherwise JSON)")
		ckptEvery = flag.Int64("checkpoint-every", 0, "write a checkpoint into -checkpoint-dir every N cycles (0 = off)")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for periodic and stall checkpoints")
		resume    = flag.String("resume", "", "resume from a checkpoint file, or from the latest checkpoint in a directory")
		digestAt  = flag.Int64("digest-at", 0, "run to this cycle (-1 = completion), print per-component state digests as JSON, and exit (the simbisect probe)")
		perturbFl = flag.String("perturb", "", "comma-separated cycle:component artificial state divergences (for exercising simbisect; see docs/checkpointing.md)")
		excepMode = flag.String("exception-mode", "precise", "device exception delivery: precise (drain and kill the faulting warp) or preemptible (squash the block via context save)")
		flipSeed  = flag.Int64("flip-seed", 0, "bit-flip injection seed (with -flip-rate)")
		flipRate  = flag.Float64("flip-rate", 0, "per-lane-instruction bit-flip probability in [0,1] (0 = off)")
		protectN  = flag.Int("protect-threads", 0, "shield the first N threads of every block from bit flips")
		sampleEv  = flag.Int64("sample-every", 0, "sample every registered metric into the telemetry series every N cycles (0 = off)")
		seriesFn  = flag.String("series", "", "write the sampled telemetry series to this file (.csv for CSV, otherwise NDJSON); needs -sample-every")
		httpAddr  = flag.String("http", "", "serve live introspection (/status, /metrics, /series, /trace/last, pprof) on this host:port")
		httpWait  = flag.Duration("http-linger", 0, "keep the -http server up this long after the run completes")
	)
	flag.Parse()
	digestMode := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "digest-at" {
			digestMode = true
		}
	})

	// Validate flag values up front, before any simulation work: a bad
	// value must fail fast with a clear message, not be silently ignored.
	if *chaosLvl < 0 || *chaosLvl > 3 {
		fmt.Fprintf(os.Stderr, "-chaos-level %d out of range [0,3]\n", *chaosLvl)
		os.Exit(2)
	}
	if *traceFlt != "" {
		if _, err := gpues.ParseTraceFilter(*traceFlt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	mode, err := gpues.ParseExcepMode(*excepMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *flipRate < 0 || *flipRate > 1 {
		fmt.Fprintf(os.Stderr, "-flip-rate %v outside [0,1]\n", *flipRate)
		os.Exit(2)
	}
	if *protectN < 0 {
		fmt.Fprintf(os.Stderr, "-protect-threads %d must be non-negative\n", *protectN)
		os.Exit(2)
	}
	if *flipSeed != 0 && *flipRate == 0 {
		fmt.Fprintln(os.Stderr, "-flip-seed needs -flip-rate > 0")
		os.Exit(2)
	}
	if *sampleEv < 0 {
		fmt.Fprintf(os.Stderr, "-sample-every %d must be non-negative (0 = sampling off)\n", *sampleEv)
		os.Exit(2)
	}
	if *seriesFn != "" && *sampleEv == 0 {
		fmt.Fprintln(os.Stderr, "-series needs -sample-every > 0")
		os.Exit(2)
	}
	if *httpAddr != "" {
		if err := obsrv.ValidateAddr(*httpAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *httpWait != 0 && *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "-http-linger needs -http")
		os.Exit(2)
	}
	if *httpWait < 0 {
		fmt.Fprintf(os.Stderr, "-http-linger %v must be non-negative\n", *httpWait)
		os.Exit(2)
	}

	if *list {
		for _, suite := range []string{"parboil", "halloc", "sdk"} {
			fmt.Printf("%s:\n", suite)
			for _, name := range gpues.WorkloadNames(suite) {
				desc, _ := gpues.WorkloadDescription(name)
				fmt.Printf("  %-16s %s\n", name, desc)
			}
		}
		return
	}

	cfg := gpues.DefaultConfig()
	switch *schemeStr {
	case "baseline":
		cfg.Scheme = gpues.Baseline
	case "wd-commit":
		cfg.Scheme = gpues.WarpDisableCommit
	case "wd-lastcheck":
		cfg.Scheme = gpues.WarpDisableLastCheck
	case "replay-queue":
		cfg.Scheme = gpues.ReplayQueue
	case "operand-log":
		cfg.Scheme = gpues.OperandLog
	default:
		fmt.Fprintf(os.Stderr, "unknown scheme %q\n", *schemeStr)
		os.Exit(2)
	}
	switch *linkStr {
	case "nvlink":
		cfg.Link = gpues.NVLinkConfig()
	case "pcie":
		cfg.Link = gpues.PCIeConfig()
	default:
		fmt.Fprintf(os.Stderr, "unknown link %q\n", *linkStr)
		os.Exit(2)
	}
	cfg.SM.OperandLog.SizeKB = *logKB
	cfg.MaxCycles = *maxCycles
	cfg.SampleEvery = *sampleEv
	cfg.DemandPaging = *paging
	cfg.Scheduler.Enabled = *switching
	cfg.Local.Enabled = *local
	cfg.Excep.Mode = mode
	cfg.Excep.Flip = gpues.FlipConfig{Seed: *flipSeed, Rate: *flipRate, ProtectThreads: *protectN}

	place := gpues.ResidentPlacement()
	switch {
	case *paging && *lazy:
		fmt.Fprintln(os.Stderr, "-paging and -lazy are mutually exclusive")
		os.Exit(2)
	case *paging:
		place = gpues.DemandPagingPlacement()
	case *lazy:
		place = gpues.LazyOutputPlacement()
	}
	if (*switching || cfg.DemandPaging || *lazy) && cfg.Scheme == gpues.Baseline {
		// Preemption requires a preemptible pipeline; warn but allow the
		// stall-on-fault baseline for comparison runs.
		if *switching {
			fmt.Fprintln(os.Stderr, "note: block switching needs a preemptible scheme; using replay-queue")
			cfg.Scheme = gpues.ReplayQueue
		}
	}
	if mode == gpues.ExcepPreemptible && !cfg.Scheme.Preemptible() {
		fmt.Fprintln(os.Stderr, "-exception-mode preemptible needs a preemptible scheme (see -scheme)")
		os.Exit(2)
	}

	spec, err := gpues.BuildWorkload(*workload, gpues.WorkloadParams{Scale: *scale, Placement: place})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if digestMode {
		if err := runDigestProbe(cfg, spec, *digestAt, *chaosLvl, *chaosSeed, *perturbFl); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// Tracing: build the tracer up front; writeTrace runs on every exit
	// path (the trace of a failed run is the most valuable one).
	var tracer *gpues.Tracer
	if *traceOut != "" {
		mask, err := gpues.ParseTraceFilter(*traceFlt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		tracer = gpues.NewTracer(gpues.TracerOptions{Filter: mask})
	}
	writeTrace := func() {
		if tracer == nil {
			return
		}
		if err := writeTraceFile(tracer, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// Live introspection: start the server before the run so /status is
	// reachable while the simulation ticks. The simulator publishes
	// snapshots at its sequential flush point; the server never touches
	// simulator state.
	var srv *obsrv.Server
	if *httpAddr != "" {
		srv = obsrv.New(*httpAddr)
		bound, err := srv.Start()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serving http://%s\n", bound)
		defer srv.Close()
	}
	linger := func() {
		if srv != nil && *httpWait > 0 {
			fmt.Fprintf(os.Stderr, "lingering %v on http://%s\n", *httpWait, srv.Addr())
			time.Sleep(*httpWait)
		}
	}

	stopProf, err := prof.StartCPU(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var res *gpues.Result
	if *chaosLvl > 0 {
		if *perturbFl != "" {
			fmt.Fprintln(os.Stderr, "-perturb needs -digest-at or a chaos-free run")
			os.Exit(2)
		}
		plan, err := gpues.ChaosPlanForLevel(*chaosLvl, *chaosSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opt := gpues.ChaosRunOptions{
			Tracer:          tracer,
			CheckpointEvery: *ckptEvery,
			CheckpointDir:   *ckptDir,
			Resume:          *resume,
		}
		if srv != nil {
			// Assign only a live server: a typed-nil in the interface field
			// would pass the != nil check inside RunChaosOpts.
			opt.Telemetry = srv
		}
		cr, err := gpues.RunChaosOpts(cfg, spec, plan, opt)
		if err != nil {
			exitOnExcep(err, writeTrace)
			fmt.Fprintln(os.Stderr, err)
			writeTrace()
			os.Exit(1)
		}
		res = cr.Result
		fmt.Printf("chaos         level %d seed %d: %s\n", *chaosLvl, *chaosSeed, cr.Summary)
		fmt.Printf("fingerprint   %#016x (%d events, %d walk faults injected)\n",
			cr.Fingerprint, len(cr.Events), res.InjectedFaults)
		if cr.OracleOK() {
			fmt.Println("oracle        final memory matches functional re-execution")
		} else {
			fmt.Fprintf(os.Stderr, "oracle        MISMATCH: %d bytes diverge, first at %#x\n",
				len(cr.Mismatches), cr.Mismatches[0].Addr)
			stopProf()
			writeTrace()
			os.Exit(1)
		}
	} else {
		s, err := gpues.NewSimulator(cfg, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s.AttachTracer(tracer)
		s.CheckpointEvery = *ckptEvery
		s.CheckpointDir = *ckptDir
		if srv != nil {
			s.SetTelemetrySink(srv, 0)
		}
		if err := applyPerturbs(s, *perturbFl); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *resume != "" {
			path, err := gpues.ResolveCheckpoint(*resume)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := s.RestoreFile(path); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("resumed       from %s (cycle %d)\n", path, s.Cycle())
		}
		res, err = s.Run()
		if err != nil {
			exitOnExcep(err, writeTrace)
			fmt.Fprintln(os.Stderr, err)
			writeTrace()
			os.Exit(1)
		}
	}
	stopProf()
	if err := prof.WriteHeap(*memProf); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	writeTrace()
	if *metricsFn != "" {
		if err := writeMetricsFile(res.Metrics, *metricsFn); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *seriesFn != "" {
		if err := writeSeriesFile(res.Series, *seriesFn); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	fmt.Printf("workload      %s (scale %d, %d blocks of %d threads)\n",
		*workload, *scale, spec.Launch.Blocks(), spec.Launch.ThreadsPerBlock())
	fmt.Printf("scheme        %v, link %v\n", cfg.Scheme, cfg.Link.Kind)
	fmt.Printf("cycles        %d (%.1f us at %.0f GHz)\n",
		res.Cycles, float64(res.Cycles)/1000/cfg.System.FrequencyGHz, cfg.System.FrequencyGHz)
	fmt.Printf("committed     %d warp instructions, IPC %.2f\n", res.Committed, res.IPC())
	if res.Flips > 0 {
		fmt.Printf("flips         %d architectural bit flips injected (seed %d, rate %g)\n",
			res.Flips, *flipSeed, *flipRate)
	}
	fmt.Printf("occupancy     %d-%d blocks/SM (mean %.1f)\n",
		res.OccupancyMin, res.Occupancy, res.OccupancyMean)
	fmt.Printf("L2            %d hits / %d misses, %d writebacks\n", res.L2.Hits, res.L2.Misses, res.L2.WriteBacks)
	fmt.Printf("L2 TLB        %d hits / %d misses\n", res.L2TLB.Hits, res.L2TLB.Misses)
	fmt.Printf("walks         %d (%d faulted)\n", res.Walks, res.WalkFaults)
	fmt.Printf("DRAM          %d reads / %d writes, %d stall cycles\n",
		res.DRAM.Reads, res.DRAM.Writes, res.DRAM.StallCycles)
	if res.FaultUnit.Raised > 0 {
		fmt.Printf("faults        %d raised, %d regions (%d merged), max queue %d\n",
			res.FaultUnit.Raised, res.FaultUnit.Regions, res.FaultUnit.Merged, res.FaultUnit.MaxQueue)
		fmt.Printf("routing       %d to CPU, %d to GPU-local handler\n",
			res.FaultUnit.RoutedCPU, res.FaultUnit.RoutedLocal)
		fmt.Printf("link          %.1f%% utilized\n", 100*res.LinkUtil)
	}
	var sq, rp, out, in int64
	for _, s := range res.SMs {
		sq += s.Squashed
		rp += s.Replays
		out += s.SwitchesOut
		in += s.SwitchesIn
	}
	if sq > 0 {
		fmt.Printf("preemption    %d squashed, %d replayed\n", sq, rp)
	}
	if out > 0 {
		fmt.Printf("switching     %d blocks out, %d restored\n", out, in)
	}
	if st := res.Stalls.Total(); st > 0 {
		fmt.Printf("stalls        ")
		first := true
		for r := gpues.StallReasonFirst; r < gpues.StallReasonCount; r++ {
			if res.Stalls[r] == 0 {
				continue
			}
			if !first {
				fmt.Printf(", ")
			}
			fmt.Printf("%s=%d", r, res.Stalls[r])
			first = false
		}
		fmt.Println()
	}
	if fl, ok := res.Metrics.Histograms["fault.latency_cycles"]; ok && fl.Count > 0 {
		fmt.Printf("fault latency mean %.0f cycles, p50 %d, p99 %d (%d regions)\n",
			fl.Mean, fl.P50, fl.P99, fl.Count)
	}
	if *verbose {
		fmt.Println("\nper-SM:")
		for i, s := range res.SMs {
			fmt.Printf("  SM%-2d committed=%8d active=%6.1f%% faults=%4d switches=%d/%d\n",
				i, s.Committed, 100*float64(s.ActiveCycles)/float64(s.Cycles),
				s.Faults, s.SwitchesOut, s.SwitchesIn)
		}
	}
	linger()
}

// exitOnExcep prints a device exception's structured records — the
// stack-trace report CI compares against golden files — and exits with
// status 3, distinct from the generic failure status 1 so callers can
// tell a caught device exception from a simulator failure. A non-
// exception error returns without acting.
func exitOnExcep(err error, flush func()) {
	var ee *gpues.ExcepError
	if !errors.As(err, &ee) {
		return
	}
	fmt.Fprintln(os.Stderr, err)
	for _, r := range ee.Records {
		fmt.Fprintln(os.Stderr, r.String())
	}
	flush()
	os.Exit(3)
}

// applyPerturbs parses a comma-separated cycle:component list and
// registers each as an artificial state divergence.
func applyPerturbs(s *gpues.Simulator, spec string) error {
	if spec == "" {
		return nil
	}
	for _, item := range strings.Split(spec, ",") {
		cycleStr, comp, ok := strings.Cut(item, ":")
		if !ok {
			return fmt.Errorf("-perturb %q is not cycle:component", item)
		}
		cycle, err := strconv.ParseInt(cycleStr, 10, 64)
		if err != nil || cycle < 0 {
			return fmt.Errorf("-perturb cycle %q must be a non-negative integer", cycleStr)
		}
		if err := s.InjectDivergence(cycle, comp); err != nil {
			return err
		}
	}
	return nil
}

// runDigestProbe runs the configured launch to the requested cycle and
// prints the per-component state digests as one JSON object — the
// probe protocol simbisect's -exec-a/-exec-b mode speaks.
func runDigestProbe(cfg gpues.Config, spec gpues.LaunchSpec, at int64, chaosLvl int, chaosSeed int64, perturbs string) error {
	s, err := gpues.NewSimulator(cfg, spec)
	if err != nil {
		return err
	}
	if chaosLvl > 0 {
		plan, err := gpues.ChaosPlanForLevel(chaosLvl, chaosSeed)
		if err != nil {
			return err
		}
		s.AttachChaos(plan)
	}
	if err := applyPerturbs(s, perturbs); err != nil {
		return err
	}
	if err := s.Start(); err != nil {
		return err
	}
	reached, err := s.StepTo(at)
	if err != nil {
		return err
	}
	probe := struct {
		At      int64                   `json:"at"`
		Cycle   int64                   `json:"cycle"`
		Done    bool                    `json:"done"`
		Digests []gpues.ComponentDigest `json:"digests"`
	}{At: at, Cycle: s.Cycle(), Done: !reached, Digests: s.ComponentDigests()}
	return json.NewEncoder(os.Stdout).Encode(probe)
}

// writeTraceFile exports the tracer: Chrome trace_event JSON, or the
// compact binary format when the path ends in .bin.
func writeTraceFile(tr *gpues.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".bin") {
		err = tr.WriteBinary(f)
	} else {
		err = tr.WriteChrome(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSeriesFile exports the sampled telemetry series: CSV when the
// path ends in .csv, NDJSON otherwise.
func writeSeriesFile(v gpues.SeriesView, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = v.WriteCSV(f)
	} else {
		err = v.WriteNDJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeMetricsFile exports the metrics snapshot: CSV when the path ends
// in .csv, JSON otherwise.
func writeMetricsFile(m gpues.MetricsSnapshot, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = m.WriteCSV(f)
	} else {
		err = m.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
