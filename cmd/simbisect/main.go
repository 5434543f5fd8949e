// Command simbisect finds the first cycle at which two simulator runs
// diverge, and the first component whose state differs there. Both
// runs execute the same workload; each side is either an in-process
// variant described by -a/-b key=value overrides, or an external
// gpusim-compatible command (-exec-a/-exec-b) probed via its
// -digest-at flag. The override keys are gpusim's own flag names, so
// -b scheme=replay-queue,paging=true and -exec-b "gpusim -scheme
// replay-queue -paging" describe the same run. Because the simulator
// is deterministic, state digests disagree from the first divergent
// cycle onward, so a binary search over replays pinpoints it in
// O(log N) probes.
//
// Examples:
//
//	simbisect -workload sgemm -a scheme=replay-queue -b scheme=operand-log
//	simbisect -workload stencil -b perturb=5000:cache.l2
//	simbisect -workload sgemm -ckpt-a runA.ckpts -ckpt-b runB.ckpts -b chaos-level=2
//	simbisect -exec-a "./gpusim-good -workload bfs" -exec-b "./gpusim-bad -workload bfs"
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gpues/internal/bisect"
	"gpues/internal/obs"
	"gpues/internal/runspec"
)

func main() {
	var (
		workload = flag.String("workload", "sgemm", "workload both runs execute")
		scale    = flag.Int("scale", 1, "dataset scale factor")
		aSpec    = flag.String("a", "", "run A overrides: comma-separated key=value, each key a gpusim flag name (scheme, link, paging, lazy, switching, local, log-kb, chaos-level, chaos-seed, perturb=cycle:component, ...)")
		bSpec    = flag.String("b", "", "run B overrides, same syntax as -a")
		execA    = flag.String("exec-a", "", "probe run A via this gpusim command line instead of in-process")
		execB    = flag.String("exec-b", "", "probe run B via this gpusim command line instead of in-process")
		lo       = flag.Int64("lo", 0, "lower bound cycle (runs must agree here)")
		hi       = flag.Int64("hi", -1, "upper bound cycle, -1 = run to completion")
		ckptA    = flag.String("ckpt-a", "", "run A checkpoint directory; with -ckpt-b, raises -lo to the nearest shared agreeing checkpoint")
		ckptB    = flag.String("ckpt-b", "", "run B checkpoint directory (see -ckpt-a)")
		window   = flag.Int("trace-window", 16, "print this many trace events leading up to the divergence (in-process runs only, 0 = off)")
	)
	flag.Parse()

	lower := *lo
	if *ckptA != "" || *ckptB != "" {
		if *ckptA == "" || *ckptB == "" {
			fatal(fmt.Errorf("-ckpt-a and -ckpt-b must be given together"))
		}
		shared, err := bisect.NearestShared(*ckptA, *ckptB)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("nearest shared checkpoint: cycle %d\n", shared)
		if shared > lower {
			lower = shared
		}
	}

	runnerA, _, err := makeRunner(*execA, *aSpec, *workload, *scale)
	if err != nil {
		fatal(fmt.Errorf("run A: %w", err))
	}
	runnerB, specB, err := makeRunner(*execB, *bSpec, *workload, *scale)
	if err != nil {
		fatal(fmt.Errorf("run B: %w", err))
	}

	rep, err := bisect.FirstDivergence(runnerA, runnerB, lower, *hi)
	if err != nil {
		fatal(err)
	}
	fmt.Println(rep)
	if !rep.Diverged {
		return
	}
	fmt.Printf("  run A stopped at cycle %d (done=%v), run B at %d (done=%v)\n",
		rep.A.Cycle, rep.A.Done, rep.B.Cycle, rep.B.Done)

	if *window > 0 && specB != nil {
		if err := printTraceWindow(specB, rep.FirstCycle, *window); err != nil {
			fmt.Fprintf(os.Stderr, "trace window: %v\n", err)
		}
	}
	os.Exit(1) // divergence found: non-zero, like cmp/diff
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simbisect:", err)
	os.Exit(2)
}

// makeRunner builds one side's Runner: an ExecRunner when execCmd is
// set, otherwise an in-process SimRunner whose spec is gpusim's
// defaults with the workload, scale and key=value overrides applied.
// The returned spec is non-nil only for in-process runs.
func makeRunner(execCmd, overrides, workload string, scale int) (bisect.Runner, *runspec.JobSpec, error) {
	if execCmd != "" {
		if overrides != "" {
			return nil, nil, fmt.Errorf("-exec-* and in-process overrides are mutually exclusive")
		}
		return bisect.ExecRunner{Argv: strings.Fields(execCmd)}, nil, nil
	}
	fs := flag.NewFlagSet("overrides", flag.ContinueOnError)
	js := runspec.Bind(fs)
	js.Benchmark, js.Scale = workload, scale
	if err := runspec.SetItems(fs, overrides); err != nil {
		return nil, nil, err
	}
	if _, _, err := js.Build(); err != nil {
		return nil, nil, err
	}
	return bisect.SimRunner{Build: js.NewSim}, js, nil
}

// printTraceWindow replays run B once more with a flight-recorder
// tracer to the divergence cycle and prints the trailing events — the
// activity leading into the first divergent state.
func printTraceWindow(js *runspec.JobSpec, cycle int64, n int) error {
	tr := obs.New(obs.Options{})
	s, err := js.NewSim()
	if err != nil {
		return err
	}
	s.AttachTracer(tr)
	if err := s.Start(); err != nil {
		return err
	}
	if _, err := s.StepTo(cycle); err != nil {
		return err
	}
	events := tr.LastN(n)
	fmt.Printf("  last %d trace events of run B before cycle %d:\n", len(events), cycle)
	for _, e := range events {
		fmt.Printf("    %s\n", e)
	}
	return nil
}
