// Command gpusim runs one benchmark kernel through the GPU timing
// simulator and prints its execution statistics.
//
// Examples:
//
//	gpusim -workload sgemm
//	gpusim -workload lbm -scheme replay-queue
//	gpusim -workload stencil -scheme replay-queue -paging -switching -link pcie
//	gpusim -workload halloc-spree -lazy -local
//	gpusim -workload stencil -scheme replay-queue -paging -switching -trace run.trace.json -trace-filter fault,switch,migrate,replay
//	gpusim -workload sgemm -metrics metrics.csv
//	gpusim -workload sgemm -checkpoint-every 20000 -checkpoint-dir run.ckpts
//	gpusim -workload sgemm -audit run.ckpts
//	gpusim -list
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gpues"
	"gpues/internal/ckpt"
	"gpues/internal/obsrv"
	"gpues/internal/prof"
	"gpues/internal/runspec"
)

func main() {
	js := runspec.Bind(flag.CommandLine)
	var (
		list      = flag.Bool("list", false, "list available workloads and exit")
		verbose   = flag.Bool("v", false, "print per-SM statistics")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file after the run")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file; view in Perfetto")
		traceFlt  = flag.String("trace-filter", "", "comma-separated event kinds or groups to record (all, pipeline, stall, fault, replay, switch, migrate, local); empty records everything")
		metricsFn = flag.String("metrics", "", "write the metrics registry snapshot to this file (.csv for CSV, otherwise JSON)")
		ckptEvery = flag.Int64("checkpoint-every", 0, "write a checkpoint into -checkpoint-dir every N cycles (0 = off)")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for periodic and stall checkpoints")
		auditDir  = flag.String("audit", "", "check the run's state digests against every checkpoint in this directory (a trail written with -checkpoint-dir), then finish the run")
		digestAt  = flag.Int64("digest-at", 0, "run to this cycle (-1 = completion), print per-component state digests as JSON, and exit (the simbisect probe)")
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
	// value must fail fast with exit 2, not be silently ignored. The
	// model axes are checked by runspec's Build below; these are the
	// output and observability flags only gpusim has.
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(2)
	}
	traceMask, err := gpues.ParseTraceFilter(*traceFlt)
	if err != nil {
		usage("%v", err)
	}
	if *seriesFn != "" && js.SampleEvery == 0 {
		usage("-series needs -sample-every > 0")
	}
	if *httpAddr != "" {
		if err := obsrv.ValidateAddr(*httpAddr); err != nil {
			usage("%v", err)
		}
	}
	if *httpWait != 0 && *httpAddr == "" {
		usage("-http-linger needs -http")
	}
	if *httpWait < 0 {
		usage("-http-linger %v must be non-negative", *httpWait)
	}
	if *auditDir != "" && *ckptDir != "" {
		usage("-audit cannot be combined with -checkpoint-dir: an audit checks a trail, it does not write one")
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

	cfg, spec, err := js.Build()
	if err != nil {
		usage("%v", err)
	}

	if digestMode {
		if err := runDigestProbe(cfg, spec, js, *digestAt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// Tracing: build the tracer up front; writeTrace runs on every exit
	// path (the trace of a failed run is the most valuable one).
	var tracer *gpues.Tracer
	if *traceOut != "" {
		tracer = gpues.NewTracer(gpues.TracerOptions{Filter: traceMask})
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
	fail := func(err error) {
		exitOnExcep(err, writeTrace)
		fmt.Fprintln(os.Stderr, err)
		writeTrace()
		os.Exit(1)
	}
	s, err := gpues.NewSimulator(cfg, spec)
	if err != nil {
		fail(err)
	}
	plan, err := js.Attach(s)
	if err != nil {
		usage("%v", err)
	}
	s.AttachTracer(tracer)
	s.CheckpointEvery = *ckptEvery
	s.CheckpointDir = *ckptDir
	if srv != nil {
		s.SetTelemetrySink(srv)
	}
	var initial *gpues.Memory
	if plan != nil {
		initial = spec.Memory.Clone()
	}
	if *auditDir != "" {
		line, err := audit(s, *auditDir)
		if err != nil {
			fail(err)
		}
		fmt.Println(line)
	}
	res, err := s.Run()
	if err != nil {
		fail(err)
	}
	if plan != nil {
		fmt.Printf("chaos         level %d seed %d: %s\n", js.ChaosLevel, js.ChaosSeed, plan.Summary())
		fmt.Printf("fingerprint   %#016x (%d events, %d walk faults injected)\n",
			plan.Fingerprint(), len(plan.Events()), res.InjectedFaults)
		mis, err := gpues.CheckOracle(spec.Launch, initial, spec.Memory, cfg.SM.L1LineB)
		if err != nil {
			fail(err)
		}
		if len(mis) > 0 {
			fmt.Fprintf(os.Stderr, "oracle        MISMATCH: %d bytes diverge, first at %#x\n",
				len(mis), mis[0].Addr)
			stopProf()
			writeTrace()
			os.Exit(1)
		}
		fmt.Println("oracle        final memory matches functional re-execution")
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
		js.Benchmark, js.Scale, spec.Launch.Blocks(), spec.Launch.ThreadsPerBlock())
	fmt.Printf("scheme        %v, link %v\n", cfg.Scheme, cfg.Link.Kind)
	fmt.Printf("cycles        %d (%.1f us at %.0f GHz)\n",
		res.Cycles, float64(res.Cycles)/1000/cfg.System.FrequencyGHz, cfg.System.FrequencyGHz)
	fmt.Printf("committed     %d warp instructions, IPC %.2f\n", res.Committed, res.IPC())
	if res.Flips > 0 {
		fmt.Printf("flips         %d architectural bit flips injected (seed %d, rate %g)\n",
			res.Flips, js.Flip.Seed, js.Flip.Rate)
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

// audit checks s, before it runs, against every checkpoint of the
// trail in dir and returns the summary line. A file in the trail that
// does not decode fails the audit by name: a trail with a gap proves
// less than it claims.
func audit(s *gpues.Simulator, dir string) (string, error) {
	trail, skipped, err := ckpt.ReadTrail(dir)
	if err != nil {
		return "", err
	}
	if len(skipped) > 0 {
		return "", fmt.Errorf("audit: unreadable checkpoint %s", filepath.Join(dir, skipped[0]))
	}
	if err := s.Audit(trail...); err != nil {
		return "", err
	}
	return fmt.Sprintf("audit         %d checkpoints match, cycles %d-%d",
		len(trail), trail[0].Cycle, trail[len(trail)-1].Cycle), nil
}

// runDigestProbe runs the configured launch to the requested cycle and
// prints the per-component state digests as one JSON object — the
// probe protocol simbisect's -exec-a/-exec-b mode speaks.
func runDigestProbe(cfg gpues.Config, spec gpues.LaunchSpec, js *runspec.JobSpec, at int64) error {
	s, err := gpues.NewSimulator(cfg, spec)
	if err != nil {
		return err
	}
	if _, err := js.Attach(s); err != nil {
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

// writeTraceFile exports the tracer as Chrome trace_event JSON.
func writeTraceFile(tr *gpues.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tr.WriteChrome(f)
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
