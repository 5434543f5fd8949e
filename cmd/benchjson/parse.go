package main

import (
	"math"
	"strconv"
	"strings"
)

// Report is the JSON shape of one benchmark run.
type Report struct {
	Commit     string      `json:"commit,omitempty"`
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	Package    string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one result line. Metrics maps unit to value, e.g.
// "ns/op" to the wall time and "sim-cycles" to the simulated cycle
// count reported via b.ReportMetric.
type Benchmark struct {
	Name    string             `json:"name"`
	N       int64              `json:"n"`
	Metrics map[string]float64 `json:"metrics"`
}

// parseLine folds one output line into the report. Benchmark lines look
// like:
//
//	BenchmarkFig10/baseline    1    579904096 ns/op    117137 sim-cycles
//
// i.e. name, iteration count, then value/unit pairs. Header lines
// (goos:, goarch:, pkg:, cpu:) and everything else (PASS, ok, test
// logs) are matched by prefix or ignored.
func parseLine(rep *Report, line string) {
	switch {
	case strings.HasPrefix(line, "goos: "):
		rep.GoOS = strings.TrimSpace(line[len("goos: "):])
		return
	case strings.HasPrefix(line, "goarch: "):
		rep.GoArch = strings.TrimSpace(line[len("goarch: "):])
		return
	case strings.HasPrefix(line, "pkg: "):
		rep.Package = strings.TrimSpace(line[len("pkg: "):])
		return
	case strings.HasPrefix(line, "cpu: "):
		rep.CPU = strings.TrimSpace(line[len("cpu: "):])
		return
	}
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return
	}
	n, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	b := Benchmark{Name: f[0], N: n, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			// Not a value where one was expected (an optional metric —
			// fault-lat-* under schemes that took no faults — left a unit
			// without a value). Resync one token ahead instead of
			// discarding the metrics that did parse.
			i++
			continue
		}
		// Non-finite values (a rate whose denominator was zero) would
		// make the report unmarshalable as JSON; drop the pair only.
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			b.Metrics[f[i+1]] = v
		}
		i += 2
	}
	if len(b.Metrics) == 0 {
		return
	}
	rep.Benchmarks = append(rep.Benchmarks, b)
}
