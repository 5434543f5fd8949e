package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: gpues
cpu: AMD EPYC 7B13
BenchmarkFig10/baseline         	       1	 579904096 ns/op	    117137 sim-cycles
BenchmarkFig10/replay-queue     	       1	 541994459 ns/op	    129906 sim-cycles	    100209 fault-lat-mean	    239999 fault-lat-p99	  66348088 stall-fault-wait
BenchmarkTable2                 	       1	     17834 ns/op
BenchmarkEmulator               	       1	  80718509 ns/op	   2626064 warp-insts/s
--- some test log noise
PASS
ok  	gpues	12.345s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoOS != "linux" || rep.GoArch != "amd64" || rep.Package != "gpues" {
		t.Fatalf("header = %q/%q/%q", rep.GoOS, rep.GoArch, rep.Package)
	}
	if rep.CPU != "AMD EPYC 7B13" {
		t.Fatalf("cpu = %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("got %d benchmarks, want 4", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkFig10/baseline" || b.N != 1 {
		t.Fatalf("first = %+v", b)
	}
	if b.Metrics["ns/op"] != 579904096 || b.Metrics["sim-cycles"] != 117137 {
		t.Fatalf("metrics = %v", b.Metrics)
	}
	rq := rep.Benchmarks[1]
	if rq.Metrics["fault-lat-p99"] != 239999 || rq.Metrics["stall-fault-wait"] != 66348088 {
		t.Fatalf("fault metrics = %v", rq.Metrics)
	}
	if rep.Benchmarks[2].Metrics["sim-cycles"] != 0 {
		t.Fatalf("Table2 should have no sim-cycles: %v", rep.Benchmarks[2].Metrics)
	}
	if rep.Benchmarks[3].Metrics["warp-insts/s"] != 2626064 {
		t.Fatalf("emulator metrics = %v", rep.Benchmarks[3].Metrics)
	}
}

// TestParseSeriesMetrics covers the telemetry-derived units the
// fault-driven benchmarks report (steady-ipc, peak-stall-share):
// fractional values must come through the generic value/unit parsing
// without disturbing the metrics that were already there.
func TestParseSeriesMetrics(t *testing.T) {
	const input = "BenchmarkFig12/switching 1 541994459 ns/op 129906 sim-cycles " +
		"0.652 steady-ipc 0.874 peak-stall-share 100209 fault-lat-mean\n"
	rep, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("got %d benchmarks, want 1", len(rep.Benchmarks))
	}
	m := rep.Benchmarks[0].Metrics
	if m["steady-ipc"] != 0.652 || m["peak-stall-share"] != 0.874 {
		t.Fatalf("series metrics = %v", m)
	}
	if m["ns/op"] != 541994459 || m["sim-cycles"] != 129906 || m["fault-lat-mean"] != 100209 {
		t.Fatalf("existing metrics disturbed: %v", m)
	}
}

func TestParseIgnoresMalformed(t *testing.T) {
	rep, err := Parse(strings.NewReader("BenchmarkBad x 1 ns/op\nBenchmarkShort 1\nBenchmarkNoMetrics 1 foo bar\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("malformed lines parsed: %+v", rep.Benchmarks)
	}
}

// TestParseToleratesMissingMetrics covers lines where an optional
// metric (fault-lat-* under a scheme that took no faults) is absent or
// left its unit without a value: the metrics that did parse must
// survive instead of the whole line being dropped.
func TestParseToleratesMissingMetrics(t *testing.T) {
	const input = "BenchmarkFig10/baseline 1 579904096 ns/op 117137 sim-cycles fault-lat-mean 239999 fault-lat-p99\n" +
		"BenchmarkFig10/nofault 1 1000 ns/op NaN fault-lat-mean +Inf fault-lat-p99 42 sim-cycles\n"
	rep, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b := rep.Benchmarks[0]
	if b.Metrics["ns/op"] != 579904096 || b.Metrics["sim-cycles"] != 117137 {
		t.Fatalf("parsed metrics lost: %v", b.Metrics)
	}
	if b.Metrics["fault-lat-p99"] != 239999 {
		t.Fatalf("resync after valueless unit failed: %v", b.Metrics)
	}
	if _, ok := b.Metrics["fault-lat-mean"]; ok {
		t.Fatalf("valueless unit should be absent: %v", b.Metrics)
	}
	nf := rep.Benchmarks[1]
	if _, ok := nf.Metrics["fault-lat-mean"]; ok {
		t.Fatalf("NaN metric kept: %v", nf.Metrics)
	}
	if _, ok := nf.Metrics["fault-lat-p99"]; ok {
		t.Fatalf("Inf metric kept: %v", nf.Metrics)
	}
	if nf.Metrics["ns/op"] != 1000 || nf.Metrics["sim-cycles"] != 42 {
		t.Fatalf("finite metrics lost: %v", nf.Metrics)
	}
}
