// Command experiments regenerates the tables and figures of the paper's
// evaluation section.
//
// Examples:
//
//	experiments -run all
//	experiments -run fig10,fig11 -scale 1
//	experiments -run fig12 -scale 2 -progress
//	experiments -run table2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"gpues"
	"gpues/internal/obsrv"
	"gpues/internal/prof"
)

func main() {
	var (
		run       = flag.String("run", "all", "comma-separated: table1, fig10, fig11, table2, fig12, fig13, fig14, scalability, ablations, chaos, resilience, all (chaos and resilience are not part of all)")
		scale     = flag.Int("scale", 0, "dataset scale (0 = per-figure default: 1 for fig10/11/14, 2 for fig12/13)")
		benches   = flag.String("bench", "", "comma-separated benchmark subset (default: the figure's full suite)")
		progress  = flag.Bool("progress", false, "print one line per completed simulation")
		par       = flag.Int("j", 0, "parallel simulations (0 = GOMAXPROCS)")
		asJSON    = flag.Bool("json", false, "emit results as JSON instead of tables")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceDir  = flag.String("trace-dir", "", "write one Chrome trace JSON per simulation into this directory")
		traceFlt  = flag.String("trace-filter", "", "comma-separated event kinds or groups to trace (with -trace-dir); empty records everything")
		resumeDir = flag.String("resume-dir", "", "record finished runs into this directory; re-invoking with the same options skips them and re-simulates the rest")
		trials    = flag.Int("trials", 0, "seeded trials per resilience-campaign cell (0 = default)")
		excepMode = flag.String("exception-mode", "precise", "exception delivery during resilience trials: precise or preemptible")
		flipSeed  = flag.Int64("flip-seed", 0, "pin the resilience campaign's base flip seed (0 = derive one per cell)")
		flipRate  = flag.Float64("flip-rate", 0, "override the resilience campaign's flip probability in [0,1] (0 = default)")
		protectN  = flag.Int("protect-threads", -1, "pin the resilience campaign's protection to N threads per block (-1 = sweep the built-in ladder)")
		httpAddr  = flag.String("http", "", "serve live campaign progress (/status, /metrics, pprof) on this host:port")
	)
	flag.Parse()

	// Validate flag values before any simulation work: a bad filter must
	// fail fast, not hours into a campaign.
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
		fmt.Fprintf(os.Stderr, "-flip-rate %g outside [0,1]\n", *flipRate)
		os.Exit(2)
	}
	if *protectN < -1 {
		fmt.Fprintf(os.Stderr, "-protect-threads %d must be -1 (sweep) or a non-negative thread count\n", *protectN)
		os.Exit(2)
	}
	if *trials < 0 {
		fmt.Fprintf(os.Stderr, "-trials %d must be non-negative\n", *trials)
		os.Exit(2)
	}
	if *httpAddr != "" {
		if err := obsrv.ValidateAddr(*httpAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	stopProf, err := prof.StartCPU(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	opt := gpues.ExperimentOptions{Scale: *scale, Parallelism: *par,
		TraceDir: *traceDir, TraceFilter: *traceFlt, ResumeDir: *resumeDir,
		Trials: *trials, FlipSeed: *flipSeed, FlipRate: *flipRate,
		ProtectPin: *protectN >= 0, ProtectThreads: max(*protectN, 0),
		ExcepMode: mode}
	if *httpAddr != "" {
		srv := obsrv.New(*httpAddr)
		bound, err := srv.Start()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serving http://%s\n", bound)
		defer srv.Close()
		opt.CampaignProgress = srv.SetCampaign
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *benches != "" {
		opt.Benchmarks = strings.Split(*benches, ",")
	}
	if *progress {
		opt.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	want := map[string]bool{}
	for _, r := range strings.Split(*run, ",") {
		want[strings.TrimSpace(r)] = true
	}
	all := want["all"]

	// Per-figure default scales: the pipeline studies converge at scale
	// 1; the use cases need larger datasets for sustained fault streams.
	withScale := func(def int) gpues.ExperimentOptions {
		o := opt
		if o.Scale == 0 {
			o.Scale = def
		}
		return o
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		stopProf()
		os.Exit(1)
	}
	show := func(r *gpues.ExperimentResult) {
		if *asJSON {
			b, err := json.MarshalIndent(r, "", "  ")
			if err != nil {
				fail(err)
			}
			fmt.Println(string(b))
			return
		}
		fmt.Println(r.String())
	}

	if all || want["table1"] {
		fmt.Println(gpues.Table1())
	}
	if all || want["fig10"] {
		r, err := gpues.Figure10(withScale(1))
		if err != nil {
			fail(err)
		}
		show(r)
	}
	if all || want["fig11"] {
		r, err := gpues.Figure11(withScale(1))
		if err != nil {
			fail(err)
		}
		show(r)
	}
	if all || want["table2"] {
		rows, err := gpues.Table2()
		if err != nil {
			fail(err)
		}
		fmt.Println("table2 — Operand logging overheads")
		fmt.Printf("%-8s %10s %10s %10s %10s\n", "log", "SM area", "GPU area", "SM power", "GPU power")
		for _, r := range rows {
			fmt.Printf("%-8s %9.2f%% %9.2f%% %9.2f%% %9.2f%%\n",
				fmt.Sprintf("%d KB", r.LogKB), r.SMAreaPct, r.GPUAreaPct, r.SMPowerPct, r.GPUPowerPct)
		}
		fmt.Println()
	}
	if all || want["fig12"] {
		r, err := gpues.Figure12(withScale(2))
		if err != nil {
			fail(err)
		}
		show(r)
	}
	if all || want["fig13"] {
		r, err := gpues.Figure13(withScale(2))
		if err != nil {
			fail(err)
		}
		show(r)
	}
	if all || want["fig14"] {
		r, err := gpues.Figure14(withScale(1))
		if err != nil {
			fail(err)
		}
		show(r)
	}
	if all || want["scalability"] || want["scal"] {
		r, err := gpues.SchemeScalability(withScale(1))
		if err != nil {
			fail(err)
		}
		show(r)
		r, err = gpues.LocalHandlingScalability(withScale(1))
		if err != nil {
			fail(err)
		}
		show(r)
	}
	if all || want["ablations"] {
		rs, err := gpues.RunAblations(withScale(1))
		if err != nil {
			fail(err)
		}
		for _, r := range rs {
			show(r)
		}
	}
	// Not part of "all": a robustness sweep, not a paper figure.
	if want["chaos"] {
		r, err := gpues.ChaosSweep(withScale(1))
		if err != nil {
			fail(err)
		}
		show(r)
	}
	// Not part of "all": the bit-flip resilience campaign.
	if want["resilience"] {
		r, err := gpues.ResilienceSweep(withScale(1))
		if err != nil {
			fail(err)
		}
		show(r)
	}

	stopProf()
	if err := prof.WriteHeap(*memProf); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
