package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"gpues/internal/ckpt"
	"gpues/internal/emu"
	"gpues/internal/sim"
)

// sliceCycles is the StepTo granularity, the simulation service's
// default lease-renewal slice, so runs advance the way a service worker
// does.
const sliceCycles = 50_000

// options are one benchmark run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
	workdir  string // scratch files: the default trace file
	jobs     int    // >0 trims the job list to its first jobs entries (smoke test)
}

// runner carries what every workload needs: the options, the report,
// the golden values and the tracer of the current pass (nil when the
// pass is untraced).
type runner struct {
	opt    options
	rep    *report
	golden map[string]outcome
	tr     *tracer
	all    *tracer // every span of the run, written to the trace file
}

// outcome is what a simulation must reproduce: its cycle count and
// committed warp instructions.
type outcome struct {
	Cycles    int64 `json:"cycles"`
	Committed int64 `json:"committed"`
}

func newRunner(opt options, golden map[string]outcome) *runner {
	r := &runner{opt: opt, rep: newReport(opt.workload, opt.seed, opt.traced), golden: golden}
	if opt.traced {
		r.all = newTracer()
	}
	return r
}

// pass selects the tracer for pass p: with tracing on, odd passes are
// traced and even ones not, so drift hits both alike and their ratio is
// the tracing overhead.
func (r *runner) pass(p int) (traced bool) {
	traced = r.all != nil && p%2 == 1
	r.tr = nil
	if traced {
		r.tr = r.all
	}
	return traced
}

// checkGolden compares a result to the golden file when the inputs were
// built at the default seed; other seeds have no golden values.
func (r *runner) checkGolden(j job, got outcome) {
	if r.opt.seed != defaultSeed {
		return
	}
	want, ok := r.golden[j.key()]
	r.rep.check(ok && want == got, "%s: got %+v, golden %+v", j.key(), got, want)
}

// simRun is one timed simulation's output.
type simRun struct {
	res    *sim.Result
	digest uint64 // functional memory after the run
	dur    time.Duration
	alloc  uint64 // bytes allocated during the run
	gcs    uint32
}

// timed builds j's inputs, then times body on them as one operation,
// recorded as a span named name. The build, a GC and the
// memory-statistics reads stay outside the timed interval.
func (r *runner) timed(j job, req, name string, body func(spec sim.LaunchSpec, parent int) (*sim.Result, error)) (*simRun, error) {
	sp := r.tr.begin("workloads.build", req, 0)
	spec, err := j.build(r.opt.seed)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	root := r.tr.begin(name, req, 0)
	res, err := body(spec, root)
	r.tr.end(root)
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	return &simRun{res: res, digest: memDigest(spec), dur: d,
		alloc: after.TotalAlloc - before.TotalAlloc, gcs: after.NumGC - before.NumGC}, nil
}

// simulate runs j from cycle 0 on a fresh build, timed from sim.New to
// the result, in sliceCycles StepTo slices.
func (r *runner) simulate(j job, req string) (*simRun, error) {
	return r.timed(j, req, "sim.job", func(spec sim.LaunchSpec, parent int) (*sim.Result, error) {
		return r.steps(j, spec, req, parent)
	})
}

// steps is the timed body of simulate: New, Start, slices, and the
// final Run that drains and collects.
func (r *runner) steps(j job, spec sim.LaunchSpec, req string, parent int) (*sim.Result, error) {
	sp := r.tr.begin("sim.new", req, parent)
	s, err := sim.New(j.config(), spec)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.tr.begin("sim.start", req, parent)
	err = s.Start()
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if err := r.slices(s, req, parent); err != nil {
		return nil, err
	}
	sp = r.tr.begin("sim.finish", req, parent)
	defer r.tr.end(sp)
	return s.Run()
}

// slices advances a started simulator to the end of its launch.
func (r *runner) slices(s *sim.Simulator, req string, parent int) error {
	for {
		sp := r.tr.begin("sim.slice", req, parent)
		reached, err := s.StepTo(s.Cycle() + sliceCycles)
		r.tr.end(sp)
		if err != nil || !reached {
			return err
		}
	}
}

// memDigest fingerprints functional memory through its checkpoint
// serialization, which carries a digest of every chunk.
func memDigest(spec sim.LaunchSpec) uint64 {
	w := ckpt.NewWriter()
	spec.Memory.SaveState(w)
	return ckpt.Digest(w.Data())
}

// emulated is the standalone emulation of one job's launch.
type emulated struct {
	winsts int64
	digest uint64
	dur    time.Duration
}

// emulate runs the functional emulator alone over a fresh build of j,
// every block in block-ID order as the dispatcher issues them. Its
// committed count and final memory must equal the full simulation's:
// the timing model consumes the traces and never alters them.
func (r *runner) emulate(j job) (*emulated, error) {
	spec, err := j.build(r.opt.seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	sp := r.all.begin("emu.emulate", j.key(), 0)
	t0 := time.Now()
	e, err := emu.New(spec.Launch, spec.Memory, j.config().SM.L1LineB)
	if err != nil {
		return nil, err
	}
	var n int64
	for b := 0; b < spec.Launch.Blocks(); b++ {
		bt, err := e.EmulateBlock(b)
		if err != nil {
			return nil, fmt.Errorf("emulate block %d: %w", b, err)
		}
		n += int64(bt.DynInsts)
	}
	d := time.Since(t0)
	r.all.end(sp)
	return &emulated{winsts: n, digest: memDigest(spec), dur: d}, nil
}

// emuOracle emulates every job standalone, checks each against its
// simulation (committed count and memory digest), and records the
// emulator-layer metrics against simulation host time simRunS (one
// pass).
func (r *runner) emuOracle(jobs []job, committed []int64, digests []uint64, simRunS float64) {
	var busy time.Duration
	var winsts int64
	n := 0
	for i, j := range jobs {
		em, err := r.emulate(j)
		if !r.rep.op("emulate "+j.key(), err) {
			continue
		}
		busy += em.dur
		winsts += em.winsts
		n++
		r.rep.check(em.winsts == committed[i], "%s: emulator ran %d warp instructions, simulation committed %d",
			j.key(), em.winsts, committed[i])
		r.rep.check(em.digest == digests[i], "%s: final memory digest %#x differs from the emulator's %#x",
			j.key(), digests[i], em.digest)
	}
	if !r.opt.traced {
		return
	}
	r.rep.set("emu.busy_s", busy.Seconds(), n)
	r.rep.set("emu.winst_per_s", ratio(float64(winsts), busy.Seconds()), n)
	r.rep.set("emu.share", ratio(busy.Seconds(), simRunS), n)
	r.rep.set("sim.timing_s", simRunS-busy.Seconds(), n)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeTrace writes every recorded span to the trace file.
func (r *runner) writeTrace() error {
	if r.all == nil {
		return nil
	}
	f, err := os.Create(r.opt.traceOut)
	if err != nil {
		return err
	}
	if err := writeChrome(f, r.all.closed()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
