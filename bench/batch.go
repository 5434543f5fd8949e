package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// A run repeats its set-up at least setupRounds times and for at least
// setupSeconds (or the timed window, if shorter), after one untimed
// round that absorbs process start-up: first-touch page faults and heap
// growth. setup_s is the median round. Spreading the rounds over
// seconds keeps one burst of host contention from moving the median of
// a set-up that takes 0.1 s.
const (
	setupRounds  = 5
	setupSeconds = 2
)

// setup runs round as described above and records setup_s.
func (r *runner) setup(round func() error) {
	runtime.GC()
	r.rep.op("set-up", round())
	var ds []float64
	start := time.Now()
	window := min(setupSeconds, r.opt.seconds)
	for len(ds) < setupRounds || time.Since(start).Seconds() < window {
		runtime.GC()
		t0 := time.Now()
		err := round()
		ds = append(ds, time.Since(t0).Seconds())
		r.rep.op("set-up", err)
	}
	r.rep.set("setup_s", median(ds), len(ds))
}

// minPasses is how many complete passes a run makes however long they
// take: each operation gets at least this many repeats.
const minPasses = 2

// passes runs op(p, i, traced) over the n operations of the workload's
// list, pass after pass, until the timed window closes, then stops
// after the operation in progress. With tracing on, odd passes are
// traced; at least minPasses complete passes run either way. op returns
// the operation's timed duration.
func (r *runner) passes(n int, op func(p, i int, traced bool) time.Duration) {
	start := time.Now()
	for p := 0; ; p++ {
		t := r.pass(p)
		var total time.Duration
		for i := 0; i < n; i++ {
			if p >= minPasses && time.Since(start).Seconds() >= r.opt.seconds {
				return
			}
			total += op(p, i, t)
		}
		if !t {
			r.rep.passes = append(r.rep.passes, total.Seconds())
		}
	}
}

// record sets the sim-layer counts of one pass, from each operation's
// first run: the exact simulated-model statistics, which a change that
// only speeds up the simulator must leave unchanged, and the Go
// allocation and GC counts. runS is the host time simulating per pass.
func (r *runner) record(first []*simRun, runS float64) {
	var cycles, winsts, walkFaults, switches int64
	var latSum, latN, allocMB float64
	var gcs uint32
	for _, run := range first {
		if run == nil {
			continue
		}
		res := run.res
		cycles += res.Cycles
		winsts += res.Committed
		walkFaults += res.WalkFaults
		for _, st := range res.SMs {
			switches += st.SwitchesOut
		}
		if h, ok := res.Metrics.Histograms["fault.latency_cycles"]; ok {
			latSum += h.Mean * float64(h.Count)
			latN += float64(h.Count)
		}
		allocMB += float64(run.alloc) / (1 << 20)
		gcs += run.gcs
	}
	n := len(first)
	r.rep.set("sim.cycles", float64(cycles), n)
	r.rep.set("sim.winsts", float64(winsts), n)
	r.rep.set("sim.walk_faults", float64(walkFaults), n)
	r.rep.set("sim.switches_out", float64(switches), n)
	r.rep.set("sim.fault_lat_cycles_mean", ratio(latSum, latN), int(latN))
	r.rep.set("sim.alloc_mb", allocMB, n)
	r.rep.set("sim.gc_cycles", float64(gcs), n)
	r.rep.set("sim.ns_per_cycle", ratio(runS*1e9, float64(cycles)), n)
	r.rep.set("sim.ns_per_winst", ratio(runS*1e9, float64(winsts)), n)
}

// runBatch is the resident and faults workloads: each pass simulates
// every job from cycle 0; wall_s is one pass as the sum of each job's
// fastest repeat. A set-up round builds every job's inputs and runs
// the first job once untimed, the warm-up.
func runBatch(r *runner, jobs []job) {
	r.setup(func() error {
		for _, j := range jobs {
			if _, err := j.build(r.opt.seed); err != nil {
				return fmt.Errorf("%s: %w", j.key(), err)
			}
		}
		_, err := r.simulate(jobs[0], "warm-up")
		return err
	})

	untraced := make([][]time.Duration, len(jobs))
	traced := make([][]time.Duration, len(jobs))
	first := make([]*simRun, len(jobs))
	r.passes(len(jobs), func(p, i int, isTraced bool) time.Duration {
		j := jobs[i]
		run, err := r.simulate(j, fmt.Sprintf("p%d/%s", p, j.key()))
		if !r.rep.op(j.key(), err) {
			return 0
		}
		got := outcome{run.res.Cycles, run.res.Committed}
		if first[i] == nil {
			first[i] = run
			r.checkGolden(j, got)
		} else {
			prev := first[i]
			r.rep.check(got == outcome{prev.res.Cycles, prev.res.Committed} && run.digest == prev.digest,
				"%s: repeat run gave %+v, first run %d cycles %d committed", j.key(), got,
				prev.res.Cycles, prev.res.Committed)
		}
		if isTraced {
			traced[i] = append(traced[i], run.dur)
		} else {
			untraced[i] = append(untraced[i], run.dur)
		}
		return run.dur
	})

	best := perOpBest(untraced)
	wall := sum(best)
	var winsts int64
	committed := make([]int64, len(jobs))
	digests := make([]uint64, len(jobs))
	for i, f := range first {
		if f != nil {
			committed[i], digests[i] = f.res.Committed, f.digest
			winsts += f.res.Committed
		}
	}
	r.rep.set("wall_s", wall, len(best))
	r.rep.set("sim_s_geomean", geomean(best), len(best))
	r.rep.set("winst_per_s", ratio(float64(winsts), wall), len(best))

	runS := 0.0
	if r.opt.traced {
		st := collect(r.all.closed())
		runS = st.perPass("sim.start", "sim.slice", "sim.finish")
		r.rep.set("workloads.build_s", st.perPass("workloads.build"), st.n["workloads.build"])
		r.rep.set("sim.new_ms", median(st.durs["sim.new"])*1e3, st.n["sim.new"])
		r.rep.set("sim.run_s", runS, st.n["sim.job"])
		r.rep.set("sim.slice_ms_p50", median(st.durs["sim.slice"])*1e3, st.n["sim.slice"])
		r.rep.setTail("sim.slice_ms_p90", st.durs["sim.slice"], 90, 1e3)
		r.record(first, runS)
		ov, n := overhead(traced, untraced)
		r.rep.set("trace.overhead_ratio", ov, n)
	}
	r.emuOracle(jobs, committed, digests, runS)
	r.rep.set("max_rss_mb", maxRSSMB(), 1)
}

// spanStats aggregates spans: by name, durations in seconds and counts;
// by request, self time per span name.
type spanStats struct {
	durs  map[string][]float64
	n     map[string]int
	byReq map[string]map[string]time.Duration
}

func collect(spans []span) spanStats {
	st := spanStats{durs: map[string][]float64{}, n: map[string]int{},
		byReq: map[string]map[string]time.Duration{}}
	self := selfTimes(spans)
	for _, s := range spans {
		st.durs[s.Name] = append(st.durs[s.Name], s.dur().Seconds())
		st.n[s.Name]++
		if st.byReq[s.Req] == nil {
			st.byReq[s.Req] = map[string]time.Duration{}
		}
		st.byReq[s.Req][s.Name] += self[s.ID]
	}
	return st
}

// perPass returns the self time of the named spans in seconds per pass
// over the list: for each operation (a request "p<pass>/<op>") the mean
// over its traced repeats, summed over operations, so a pass the
// deadline cut short weighs only the operations it reached.
func (st spanStats) perPass(names ...string) float64 {
	type acc struct {
		sum  time.Duration
		reps int
	}
	ops := map[string]*acc{}
	for req, byName := range st.byReq {
		_, op, ok := strings.Cut(req, "/")
		if !ok {
			continue
		}
		a := ops[op]
		if a == nil {
			a = &acc{}
			ops[op] = a
		}
		a.reps++
		for _, n := range names {
			a.sum += byName[n]
		}
	}
	total := 0.0
	for _, a := range ops {
		total += a.sum.Seconds() / float64(a.reps)
	}
	return total
}
