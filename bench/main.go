// Command bench is the repository's benchmark. It drives the simulator
// through its public entry points on two workloads that stress
// different layers, times each layer from outside, checks every result
// against oracles, and prints one metric per line followed by a JSON
// result object as the last line.
//
//	go run . -workload resident -seed 42            # end-to-end metrics
//	go run . -workload faults -seed 7 -trace 1      # per-layer metrics and spans
//	go run . -workload all                          # each workload in a child process
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

var workloadNames = []string{"resident", "faults"}

func main() {
	opt := options{workdir: ".bench_build"}
	var trace string
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "", "resident, faults, or all")
	fs.Int64Var(&opt.seed, "seed", defaultSeed, "workload seed: every job's inputs derive from it")
	fs.Float64Var(&opt.seconds, "seconds", 50, "length of the timed window in seconds")
	fs.StringVar(&trace, "trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics, "+
		"spans to .bench_build/trace-<workload>.json; any other value: traced run with spans to that file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	switch trace {
	case "0":
	case "1":
		opt.traced = true
		opt.traceOut = filepath.Join(opt.workdir, "trace-"+opt.workload+".json")
	default:
		opt.traced, opt.traceOut = true, trace
	}
	if opt.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	if opt.workload == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	code, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes one workload and writes its report to w. It returns 0
// when every operation and oracle check passed and 1 otherwise; err
// reports a run that could not start.
func run(opt options, w io.Writer) (int, error) {
	jobs := jobsFor(opt.workload)
	if jobs == nil {
		return 0, fmt.Errorf("unknown workload %q (want one of %v or all)", opt.workload, workloadNames)
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return 0, err
	}
	golden, err := loadGolden()
	if err != nil {
		return 0, err
	}
	r := newRunner(opt, golden)
	if opt.jobs > 0 && opt.jobs < len(jobs) {
		jobs = jobs[:opt.jobs]
	}
	runBatch(r, jobs)
	if err := r.writeTrace(); err != nil {
		r.rep.fail("writing %s: %v", opt.traceOut, err)
	}
	if err := r.rep.write(w); err != nil {
		return 0, err
	}
	if r.rep.failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// runAll runs every workload in its own child process, so each
// reports its own peak RSS. The child gets this process's flags with
// -workload appended; the last occurrence of a flag wins.
func runAll(args []string) int {
	code := 0
	for _, wl := range workloadNames {
		cmd := exec.Command(os.Args[0], append(args[:len(args):len(args)], "-workload", wl)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", wl, err)
			code = 1
		}
	}
	return code
}
