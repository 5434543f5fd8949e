// Benchmarks regenerating the paper's tables and figures, one benchmark
// function per artifact, plus component microbenchmarks. Simulated
// cycles are attached as custom metrics so runs can be compared:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// The full suites (all 11 Parboil benchmarks, paper-scale datasets) are
// regenerated by cmd/experiments; the benchmarks here use representative
// subsets so an iteration stays in seconds.
package gpues_test

import (
	"testing"

	"gpues"
	"gpues/internal/emu"
	"gpues/internal/workloads"
)

// runOnce simulates one workload/config pair and returns the result;
// callers report the simulated cycle count (and, for fault-driven
// benchmarks, the fault/stall metrics) from it.
func runOnce(b *testing.B, name string, scale int, place gpues.Placement, mut func(*gpues.Config)) *gpues.Result {
	b.Helper()
	spec, err := gpues.BuildWorkload(name, gpues.WorkloadParams{Scale: scale, Placement: place})
	if err != nil {
		b.Fatal(err)
	}
	cfg := gpues.DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	res, err := gpues.Run(cfg, spec)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// reportFaultMetrics attaches the fault-latency distribution and the
// per-reason stall breakdown of the last run as custom metrics, so
// BENCH_<sha>.json tracks them alongside sim-cycles.
func reportFaultMetrics(b *testing.B, res *gpues.Result) {
	b.Helper()
	if fl, ok := res.Metrics.Histograms["fault.latency_cycles"]; ok && fl.Count > 0 {
		b.ReportMetric(fl.Mean, "fault-lat-mean")
		b.ReportMetric(float64(fl.P99), "fault-lat-p99")
	}
	for r := gpues.StallReasonFirst; r < gpues.StallReasonCount; r++ {
		if v := res.Stalls[r]; v > 0 {
			b.ReportMetric(float64(v), "stall-"+r.String())
		}
	}
}

// benchSampleEvery is the telemetry sampling period of the fault-driven
// benchmarks: fine enough to resolve their fault phases, coarse enough
// to stay off the profile.
const benchSampleEvery = 10_000

// reportSeriesMetrics attaches interval analytics derived from the
// sampled telemetry series — steady-state IPC and the peak per-interval
// stall share — so BENCH_<sha>.json carries the run's phase behavior,
// not just end-of-run totals. Runs without sampling report nothing.
func reportSeriesMetrics(b *testing.B, res *gpues.Result) {
	b.Helper()
	if res.Series.N == 0 {
		return
	}
	st := gpues.SummarizeSeries(res.Series.Table())
	b.ReportMetric(st.SteadyIPC, "steady-ipc")
	if st.PeakStallReason != "" {
		b.ReportMetric(st.PeakStallShare, "peak-stall-share")
	}
}

// BenchmarkFig10 regenerates the Figure 10 comparison (fault-free
// performance of the preemptible schemes vs. the baseline) on a
// representative subset: the worst case (lbm) and a typical benchmark
// (sgemm).
func BenchmarkFig10(b *testing.B) {
	for _, scheme := range []gpues.Scheme{
		gpues.Baseline, gpues.WarpDisableCommit, gpues.WarpDisableLastCheck, gpues.ReplayQueue,
	} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = runOnce(b, "lbm", 1, gpues.ResidentPlacement(),
					func(c *gpues.Config) { c.Scheme = scheme }).Cycles
				cycles += runOnce(b, "sgemm", 1, gpues.ResidentPlacement(),
					func(c *gpues.Config) { c.Scheme = scheme }).Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkFig11 regenerates the Figure 11 operand log size sweep on
// lbm, its most sensitive benchmark.
func BenchmarkFig11(b *testing.B) {
	for _, kb := range []int{8, 16, 20, 32} {
		kb := kb
		b.Run(benchName("log", kb), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = runOnce(b, "lbm", 1, gpues.ResidentPlacement(), func(c *gpues.Config) {
					c.Scheme = gpues.OperandLog
					c.SM.OperandLog.SizeKB = kb
				}).Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

func benchName(prefix string, kb int) string {
	return prefix + "-" + itoa(kb) + "KB"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkTable2 computes the operand log area/power overheads.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		doc, err := gpues.RunExperiments([]string{"table2"}, gpues.ExperimentOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if rows := doc.Sections[0].Table2; len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig12 regenerates the block switching comparison on sgemm,
// the benchmark with the paper's largest improvement.
func BenchmarkFig12(b *testing.B) {
	for _, sw := range []bool{false, true} {
		sw := sw
		name := "no-switching"
		if sw {
			name = "switching"
		}
		b.Run(name, func(b *testing.B) {
			var res *gpues.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, "sgemm", 2, gpues.DemandPagingPlacement(), func(c *gpues.Config) {
					c.Scheme = gpues.ReplayQueue
					c.DemandPaging = true
					c.Scheduler.Enabled = sw
					c.SampleEvery = benchSampleEvery
				})
			}
			b.ReportMetric(float64(res.Cycles), "sim-cycles")
			reportFaultMetrics(b, res)
			reportSeriesMetrics(b, res)
		})
	}
}

// BenchmarkFig13 regenerates the local handling comparison on the
// halloc allocation-throughput benchmark.
func BenchmarkFig13(b *testing.B) {
	for _, local := range []bool{false, true} {
		local := local
		name := "cpu-handling"
		if local {
			name = "gpu-local"
		}
		b.Run(name, func(b *testing.B) {
			var res *gpues.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, "halloc-spree", 1, gpues.LazyOutputPlacement(), func(c *gpues.Config) {
					c.Scheme = gpues.ReplayQueue
					c.Local.Enabled = local
					c.SampleEvery = benchSampleEvery
				})
			}
			b.ReportMetric(float64(res.Cycles), "sim-cycles")
			reportFaultMetrics(b, res)
			reportSeriesMetrics(b, res)
		})
	}
}

// BenchmarkFig14 regenerates the output-page local handling comparison
// on histo, the paper's standout case.
func BenchmarkFig14(b *testing.B) {
	for _, local := range []bool{false, true} {
		local := local
		name := "cpu-handling"
		if local {
			name = "gpu-local"
		}
		b.Run(name, func(b *testing.B) {
			var res *gpues.Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, "histo", 1, gpues.LazyOutputPlacement(), func(c *gpues.Config) {
					c.Scheme = gpues.ReplayQueue
					c.Local.Enabled = local
					c.SampleEvery = benchSampleEvery
				})
			}
			b.ReportMetric(float64(res.Cycles), "sim-cycles")
			reportFaultMetrics(b, res)
			reportSeriesMetrics(b, res)
		})
	}
}

// BenchmarkEmulator measures the functional emulator on every Parboil
// kernel, reporting the host time per dynamic warp instruction. Each
// iteration emulates a freshly built spec, built with the timer
// stopped: execution mutates functional memory, so a reused spec would
// time different inputs on every iteration.
func BenchmarkEmulator(b *testing.B) {
	for _, name := range workloads.Names("parboil") {
		b.Run(name, func(b *testing.B) {
			insts := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				spec, err := workloads.Build(name, workloads.Params{Scale: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				e, err := emu.New(spec.Launch, spec.Memory, 128)
				if err != nil {
					b.Fatal(err)
				}
				for blk := 0; blk < spec.Launch.Blocks(); blk++ {
					bt, err := e.EmulateBlock(blk)
					if err != nil {
						b.Fatal(err)
					}
					insts += bt.DynInsts
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/winst")
		})
	}
}

// BenchmarkSimulator measures full-system simulation throughput on a
// fault-free run (simulated cycles per wall second).
func BenchmarkSimulator(b *testing.B) {
	var simCycles int64
	for i := 0; i < b.N; i++ {
		simCycles += runOnce(b, "mri-q", 1, gpues.ResidentPlacement(), nil).Cycles
	}
	b.ReportMetric(float64(simCycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}
