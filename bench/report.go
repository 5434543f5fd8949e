package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metricDef names a metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, printed with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_s_geomean", "s"},
	{"winst_per_s", "1/s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics of single layers.
var perLayer = []metricDef{
	{"workloads.build_s", "s"},
	{"emu.busy_s", "s"},
	{"emu.winst_per_s", "1/s"},
	{"emu.share", "ratio"},
	{"sim.new_ms", "ms"},
	{"sim.run_s", "s"},
	{"sim.timing_s", "s"},
	{"sim.ns_per_cycle", "ns"},
	{"sim.ns_per_winst", "ns"},
	{"sim.slice_ms_p50", "ms"},
	{"sim.slice_ms_p90", "ms"},
	{"sim.alloc_mb", "MB"},
	{"sim.gc_cycles", "count"},
	{"sim.cycles", "count"},
	{"sim.winsts", "count"},
	{"sim.walk_faults", "count"},
	{"sim.switches_out", "count"},
	{"sim.fault_lat_cycles_mean", "cycles"},
	{"trace.overhead_ratio", "ratio"},
}

// value is one reported number with its sample count and, for a tail
// percentile the rule lowered, the percentile actually used.
type value struct {
	v   float64
	n   int
	pct float64
}

// report collects one workload run's metrics and correctness tally.
type report struct {
	workload string
	seed     int64
	traced   bool
	vals     map[string]value
	// attempted counts timed operations plus oracle checks; failed
	// counts errors and mismatches among them.
	attempted, failed int
	errs              []string
	// passes holds the untraced passes' times.
	passes []float64
}

func newReport(workload string, seed int64, traced bool) *report {
	return &report{workload: workload, seed: seed, traced: traced, vals: map[string]value{}}
}

func (r *report) set(name string, v float64, n int) { r.vals[name] = value{v: v, n: n} }

// setTail records a tail percentile under the percentile rule.
func (r *report) setTail(name string, xs []float64, want, scale float64) {
	v, p := tail(xs, want)
	r.vals[name] = value{v: v * scale, n: len(xs), pct: p}
}

// op counts one attempted operation and, when err is set, its failure.
func (r *report) op(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}

// check counts one oracle comparison.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *report) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// write prints one human-readable line per metric — name, value, unit,
// sample count — then the result object as the last line.
func (r *report) write(w io.Writer) error {
	var b strings.Builder
	for _, e := range r.errs {
		fmt.Fprintf(&b, "error %s\n", e)
	}
	errRate := ratio(float64(r.failed), float64(r.attempted))
	fmt.Fprintf(&b, "workload %s seed %d traced %v\n", r.workload, r.seed, r.traced)
	metrics := map[string]map[string]any{}
	for _, d := range r.defs() {
		v := r.vals[d.name]
		line := fmt.Sprintf("metric %-28s %14.6g %-6s n=%d", d.name, v.v, d.unit, v.n)
		if v.pct != 0 && !strings.HasSuffix(d.name, fmt.Sprintf("_p%g", v.pct)) {
			line += fmt.Sprintf(" (p%g: too few samples for the named percentile)", v.pct)
		}
		fmt.Fprintln(&b, line)
		metrics[d.name] = map[string]any{"value": v.v, "unit": d.unit}
	}
	fmt.Fprintf(&b, "metric %-28s %14.6g %-6s n=%d\n", "error_rate", errRate, "ratio", r.attempted)
	if len(r.passes) > 0 {
		q1, q2, q3 := quartiles(r.passes)
		fmt.Fprintf(&b, "noise  pass seconds q1 %.4g median %.4g q3 %.4g n=%d (spread %.3f)\n",
			q1, q2, q3, len(r.passes), ratio(q3-q1, q2))
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
}
