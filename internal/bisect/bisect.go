// Package bisect finds the first cycle at which two simulator runs
// diverge. Both runs are probed at cycle boundaries for their
// per-component state digests (ckpt section digests); because the
// simulator is deterministic, digests agree at every cycle before the
// first divergence and disagree at every cycle after it, so a binary
// search needs only O(log N) replays to pin the exact cycle and the
// first component whose state differs.
package bisect

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"gpues/internal/ckpt"
	"gpues/internal/sim"
)

// Probe is one run's state observation at (or just after) a requested
// cycle.
type Probe struct {
	// At is the requested cycle; Cycle is where the run actually
	// stopped — the first cycle boundary at or after At (the event
	// queue can skip quiet cycles), or the completion cycle when the
	// run finished first.
	At    int64 `json:"at"`
	Cycle int64 `json:"cycle"`
	// Done means the run completed before reaching At.
	Done bool `json:"done"`
	// Digests are the per-component state digests at Cycle.
	Digests []ckpt.SectionDigest `json:"digests"`
}

// Runner produces probes for one configuration of the simulator.
type Runner interface {
	// ProbeAt runs a fresh instance to the requested cycle (-1 means
	// completion) and returns the observation.
	ProbeAt(cycle int64) (Probe, error)
}

// SimRunner probes in-process: Build constructs a fresh, fully
// configured simulator (config, spec, chaos plan, injected
// divergences) for every probe.
type SimRunner struct {
	Build func() (*sim.Simulator, error)
}

// ProbeAt implements Runner.
func (r SimRunner) ProbeAt(cycle int64) (Probe, error) {
	s, err := r.Build()
	if err != nil {
		return Probe{}, err
	}
	if err := s.Start(); err != nil {
		return Probe{}, err
	}
	reached, err := s.StepTo(cycle)
	if err != nil {
		return Probe{}, err
	}
	return Probe{
		At:      cycle,
		Cycle:   s.Cycle(),
		Done:    !reached,
		Digests: s.ComponentDigests(),
	}, nil
}

// ExecRunner probes by spawning a gpusim-compatible binary: Argv is
// the full command line minus the probe flags; ProbeAt appends
// "-digest-at <cycle>" and parses the JSON probe the command prints on
// stdout. This is how two different binaries (e.g. two builds across a
// suspect commit) are bisected against each other.
type ExecRunner struct {
	Argv []string
}

// ProbeAt implements Runner.
func (r ExecRunner) ProbeAt(cycle int64) (Probe, error) {
	if len(r.Argv) == 0 {
		return Probe{}, fmt.Errorf("bisect: empty exec command")
	}
	args := append(append([]string(nil), r.Argv[1:]...), "-digest-at", fmt.Sprint(cycle))
	cmd := exec.Command(r.Argv[0], args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return Probe{}, fmt.Errorf("bisect: %s: %w", strings.Join(r.Argv, " "), err)
	}
	var p Probe
	if err := json.Unmarshal(out, &p); err != nil {
		return Probe{}, fmt.Errorf("bisect: parsing probe from %s: %w", r.Argv[0], err)
	}
	return p, nil
}

// firstDiff returns the name of the first component whose digest
// differs between two probes ("" when they fully agree). A component
// present on only one side counts as differing.
func firstDiff(a, b Probe) string {
	bd := make(map[string]uint64, len(b.Digests))
	for _, d := range b.Digests {
		bd[d.Name] = d.Digest
	}
	for _, d := range a.Digests {
		got, ok := bd[d.Name]
		if !ok || got != d.Digest {
			return d.Name
		}
		delete(bd, d.Name)
	}
	if len(bd) > 0 {
		names := make([]string, 0, len(bd))
		for n := range bd {
			names = append(names, n)
		}
		sort.Strings(names)
		return names[0]
	}
	return ""
}

// agree reports whether two probes observed identical state.
func agree(a, b Probe) bool {
	return a.Cycle == b.Cycle && a.Done == b.Done && firstDiff(a, b) == ""
}

// divergedAt names the cycle a differing probe pair witnessed: the
// actual stop cycle when both runs stopped together (state divergence
// only), the requested cycle when even the stop cycles disagree
// (timing divergence — the runs took different schedules).
func divergedAt(at int64, a, b Probe) int64 {
	if a.Cycle == b.Cycle {
		return a.Cycle
	}
	return at
}

// Report is the outcome of a bisection.
type Report struct {
	// Diverged is false when the two runs agree over the whole range.
	Diverged bool
	// FirstCycle is the first probed cycle at which state differed;
	// Component is the first differing component at that cycle.
	FirstCycle int64
	Component  string
	// A and B are the two runs' probes at FirstCycle (or at the range
	// end when Diverged is false).
	A, B Probe
	// Probes counts the replays each side performed.
	Probes int
}

// String renders the verdict on one line.
func (r *Report) String() string {
	if !r.Diverged {
		return fmt.Sprintf("no divergence through cycle %d (%d probes per side)", r.A.Cycle, r.Probes)
	}
	return fmt.Sprintf("first divergence at cycle %d in component %q (%d probes per side)",
		r.FirstCycle, r.Component, r.Probes)
}

// FirstDivergence binary-searches [lo, hi] for the first cycle at
// which the two runs' state digests differ. lo must be a cycle where
// they agree (0 — or the nearest shared checkpoint's cycle — always
// qualifies for runs of the same config); hi is the upper bound, -1
// meaning run to completion. Determinism makes divergence monotone:
// once state differs it differs forever, which is what the binary
// search relies on.
func FirstDivergence(a, b Runner, lo, hi int64) (*Report, error) {
	probes := 0
	probe := func(cycle int64) (Probe, Probe, error) {
		probes++
		pa, err := a.ProbeAt(cycle)
		if err != nil {
			return Probe{}, Probe{}, fmt.Errorf("run A: %w", err)
		}
		pb, err := b.ProbeAt(cycle)
		if err != nil {
			return Probe{}, Probe{}, fmt.Errorf("run B: %w", err)
		}
		return pa, pb, nil
	}

	la, lb, err := probe(lo)
	if err != nil {
		return nil, err
	}
	if !agree(la, lb) {
		return nil, fmt.Errorf("bisect: runs already differ at lower bound %d (component %q); lower the bound",
			lo, firstDiff(la, lb))
	}
	ha, hb, err := probe(hi)
	if err != nil {
		return nil, err
	}
	if agree(ha, hb) {
		return &Report{Diverged: false, A: ha, B: hb, Probes: probes}, nil
	}
	hiCycle := hi
	if hiCycle < 0 {
		// Completion probes: bound the search by the later finisher.
		hiCycle = ha.Cycle
		if hb.Cycle > hiCycle {
			hiCycle = hb.Cycle
		}
	}

	best := Report{Diverged: true, FirstCycle: divergedAt(hiCycle, ha, hb), Component: firstDiff(ha, hb), A: ha, B: hb}
	for hiCycle-lo > 1 {
		mid := lo + (hiCycle-lo)/2
		ma, mb, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if agree(ma, mb) {
			lo = mid
		} else {
			hiCycle = mid
			best = Report{Diverged: true, FirstCycle: divergedAt(mid, ma, mb), Component: firstDiff(ma, mb), A: ma, B: mb}
		}
	}
	best.Probes = probes
	return &best, nil
}

// NearestShared scans two checkpoint directories (from two runs of the
// same workload) and returns the highest cycle at which both hold a
// checkpoint with identical per-component digests — the natural lower
// bound for FirstDivergence, found without any replay. It returns 0
// (always a valid lower bound) when the directories share no agreeing
// checkpoint.
func NearestShared(dirA, dirB string) (int64, error) {
	a, err := digestsByCycle(dirA)
	if err != nil {
		return 0, err
	}
	b, err := digestsByCycle(dirB)
	if err != nil {
		return 0, err
	}
	cycles := make([]int64, 0, len(a))
	for cycle := range a {
		cycles = append(cycles, cycle)
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] > cycles[j] })
	for _, cycle := range cycles {
		if db, ok := b[cycle]; ok && digestsEqual(a[cycle], db) {
			return cycle, nil
		}
	}
	return 0, nil
}

func digestsByCycle(dir string) (map[int64][]ckpt.SectionDigest, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[int64][]ckpt.SectionDigest)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		c, err := ckpt.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue // unreadable checkpoints just don't contribute
		}
		out[c.Cycle] = c.Sections
	}
	return out, nil
}

func digestsEqual(a, b []ckpt.SectionDigest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
