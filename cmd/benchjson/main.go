// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON report. CI runs it after the benchmark job to
// publish a BENCH_<sha>.json artifact holding wall time (ns/op), the
// simulated cycle counts (sim-cycles), and the observability metrics
// the fault-driven benchmarks attach (fault-lat-mean, fault-lat-p99,
// and the per-reason stall-<reason> breakdown), so a perf or timing
// regression between two commits is a one-line diff of two artifacts.
//
// Example:
//
//	go test -run '^$' -bench=. -benchtime=1x . | benchjson -commit "$GITHUB_SHA" -o BENCH_$GITHUB_SHA.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	var (
		commit = flag.String("commit", os.Getenv("GITHUB_SHA"), "commit hash recorded in the report")
		out    = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	rep, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep.Commit = *commit
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// Parse reads `go test -bench` text output and collects the benchmark
// result lines plus the goos/goarch/pkg/cpu header fields.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		parseLine(rep, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	return rep, nil
}
