package sim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"gpues/internal/chaos"
	"gpues/internal/config"
	"gpues/internal/obs"
	"gpues/internal/sim"
	"gpues/internal/workloads"
)

var updateStalls = flag.Bool("update", false, "rewrite testdata/stalls.golden.json from fresh simulations")

const stallGolden = "testdata/stalls.golden.json"

// stallCase is one run of the stall-breakdown golden matrix.
type stallCase struct {
	name       string
	bench      string
	place      workloads.Placement
	mut        func(*config.Config)
	chaosLevel int  // 0: no chaos plan
	traced     bool // attach an unfiltered tracer
}

// stallRecord is what the golden pins for one run: the cycle count,
// the committed instructions, the nine-reason stall breakdown and the
// three issue-stall counters, each summed over the SMs.
type stallRecord struct {
	Cycles          int64            `json:"cycles"`
	Committed       int64            `json:"committed"`
	Stalls          map[string]int64 `json:"stalls"`
	IssueStallScore int64            `json:"issue_stall_score"`
	IssueStallLog   int64            `json:"issue_stall_log"`
	IssueStallChaos int64            `json:"issue_stall_chaos"`
}

func stallCases() []stallCase {
	scheme := func(s config.Scheme) func(*config.Config) {
		return func(c *config.Config) { c.Scheme = s }
	}
	var cases []stallCase
	for _, s := range []config.Scheme{config.Baseline, config.ReplayQueue, config.OperandLog, config.WarpDisableCommit} {
		for _, b := range []string{"bfs", "cutcp"} {
			cases = append(cases, stallCase{name: b + "/resident/" + s.String(), bench: b,
				place: workloads.Resident(), mut: scheme(s)})
		}
	}
	paging := func(c *config.Config) {
		c.Scheme = config.ReplayQueue
		c.DemandPaging = true
		c.Scheduler.Enabled = true
	}
	return append(cases,
		stallCase{name: "histo/paging/replay-queue+switching", bench: "histo",
			place: workloads.DemandPaging(), mut: paging},
		stallCase{name: "histo/lazy/replay-queue+local", bench: "histo",
			place: workloads.LazyOutput(), mut: func(c *config.Config) {
				c.Scheme = config.ReplayQueue
				c.Local.Enabled = true
			}},
		stallCase{name: "sgemm/paging/replay-queue+switching+chaos2", bench: "sgemm",
			place: workloads.DemandPaging(), mut: paging, chaosLevel: 2},
		stallCase{name: "tpacf/resident/operand-log+traced", bench: "tpacf",
			place: workloads.Resident(), mut: scheme(config.OperandLog), traced: true},
	)
}

func runStallCase(t *testing.T, c stallCase) stallRecord {
	t.Helper()
	spec, err := workloads.Build(c.bench, workloads.Params{Scale: 1, Placement: c.place})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	c.mut(&cfg)
	s, err := sim.New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.chaosLevel > 0 {
		plan, err := chaos.ForLevel(c.chaosLevel, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.AttachChaos(plan)
	}
	if c.traced {
		s.AttachTracer(obs.New(obs.Options{}))
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	rec := stallRecord{Cycles: r.Cycles, Committed: r.Committed, Stalls: map[string]int64{}}
	for reason, n := range r.Stalls {
		rec.Stalls[obs.StallReason(reason).String()] = n
	}
	for _, st := range r.SMs {
		rec.IssueStallScore += st.IssueStallScore
		rec.IssueStallLog += st.IssueStallLog
		rec.IssueStallChaos += st.IssueStallChaos
	}
	return rec
}

// TestStallBreakdownGolden pins the per-reason stall counts of a small
// matrix — every scheme but wd-lastcheck, block switching, GPU-local
// handling, a chaos plan and a traced run — so that a change to the
// issue or fetch stage that shifts any stall count fails here even when
// the cycle count happens to stay put. Regenerate with -update only for
// a declared model change.
func TestStallBreakdownGolden(t *testing.T) {
	got := map[string]stallRecord{}
	for _, c := range stallCases() {
		got[c.name] = runStallCase(t, c)
	}
	if *updateStalls {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stallGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(stallGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]stallRecord
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g := got[name]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\ngot    %+v\ngolden %+v", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("matrix has %d runs, golden %d", len(got), len(want))
	}
}
