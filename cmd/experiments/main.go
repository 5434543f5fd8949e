// Command experiments regenerates the tables and figures of the paper's
// evaluation section.
//
// Examples:
//
//	experiments -run all
//	experiments -run fig10,fig11 -scale 1
//	experiments -run fig12 -scale 2 -progress
//	experiments -run table1,table2,fig10 -bench mri-q -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"gpues"
	"gpues/internal/experiments"
	"gpues/internal/obsrv"
	"gpues/internal/prof"
)

func main() {
	var (
		run       = flag.String("run", "all", "comma-separated experiments: "+experiments.Usage())
		scale     = flag.Int("scale", 0, "dataset scale (0 = per-figure default: 1 for fig10/11/14, 2 for fig12/13)")
		benches   = flag.String("bench", "", "comma-separated benchmark subset (default: the figure's full suite)")
		progress  = flag.Bool("progress", false, "print one line per completed simulation")
		par       = flag.Int("j", 0, "parallel simulations (0 = GOMAXPROCS)")
		asJSON    = flag.Bool("json", false, "emit one JSON document instead of tables")
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
	names := experiments.SplitList(*run)
	var benchmarks []string
	if *benches != "" {
		benchmarks = experiments.SplitList(*benches)
	}
	if err := experiments.Check(names, benchmarks); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	stopProf, err := prof.StartCPU(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	opt := experiments.Options{Scale: *scale, Benchmarks: benchmarks, Parallelism: *par,
		TraceDir: *traceDir, TraceFilter: *traceFlt, ResumeDir: *resumeDir,
		Trials: *trials, FlipSeed: *flipSeed, FlipRate: *flipRate,
		ProtectPin: *protectN >= 0, ProtectThreads: max(*protectN, 0),
		ExcepMode: mode}
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
	if *progress || srv != nil {
		opt.Progress = func(done, total int, line string) {
			if *progress {
				fmt.Fprintln(os.Stderr, line)
			}
			if srv != nil {
				srv.SetCampaign(done, total, line)
			}
		}
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	doc, err := experiments.Run(names, opt)
	stopProf()
	// A failed campaign still shows every section that finished.
	if *asJSON {
		b, jerr := json.MarshalIndent(doc, "", "  ")
		if jerr != nil {
			fmt.Fprintln(os.Stderr, jerr)
			os.Exit(1)
		}
		fmt.Println(string(b))
	} else {
		fmt.Print(doc.String())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := prof.WriteHeap(*memProf); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
