// Package chaos implements deterministic, seeded fault injection for
// the full-GPU simulator. A Plan perturbs the timing layer — transient
// page faults at the fill-unit walkers, delayed CPU fault-service
// completions, jittered interconnect transfers, artificial issue
// back-pressure (operand-log exhaustion / replay-queue pressure), and
// forced local-scheduler block switches — without ever touching the
// functional layer, so a correct simulator produces bit-identical
// architectural results under any plan (the paper's restartability
// property, checked by sim.RunChaos against the functional oracle).
//
// Every decision is drawn from a single seeded source in simulation
// call order; since the timing simulation is single-threaded and
// deterministic, the same seed reproduces the same injected-fault log
// and the same cycle count. The zero value of Config injects nothing,
// and a nil hook costs the components a single pointer test.
package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
)

// Config parameterizes a Plan. The zero value injects nothing.
type Config struct {
	// Seed makes the plan reproducible: equal configs produce equal
	// injection sequences.
	Seed int64

	// WalkFaultProb is the probability that a page-table walk which
	// would hit is instead reported as a transient alloc-only fault
	// (at most once per page, so every scheme — including the
	// stall-on-fault baseline, whose request replay does not re-raise —
	// is guaranteed to make progress).
	WalkFaultProb float64
	// MaxWalkFaults bounds the total injected walk faults (0 = none).
	MaxWalkFaults int

	// ServiceDelayMaxCycles adds a uniform [0, max) delay to every CPU
	// fault-service completion.
	ServiceDelayMaxCycles int64
	// LinkJitterMaxCycles adds a uniform [0, max) occupancy jitter to
	// every interconnect transfer.
	LinkJitterMaxCycles int64

	// IssueStallProb is the probability that an issuable global-memory
	// instruction is artificially stalled for one cycle, modelling
	// operand-log partition exhaustion and replay-queue back-pressure.
	IssueStallProb float64
	// MaxIssueStalls bounds the total injected issue stalls (0 = none).
	MaxIssueStalls int

	// ForceSwitchProb is the probability that a faulting block is
	// switched out regardless of its pending-queue position (the local
	// scheduler's threshold is bypassed; the scheme must still be
	// preemptible).
	ForceSwitchProb float64
	// MaxForcedSwitches bounds the forced switches (0 = none).
	MaxForcedSwitches int

	// ExhaustGPUMemory drains the GPU physical allocator at attach time,
	// leaving only LeaveGPUFrames free frames, to drive the OOM paths.
	// Runs under memory exhaustion are expected to fail with a
	// structured error, never a panic.
	ExhaustGPUMemory bool
	// LeaveGPUFrames is how many free frames survive ExhaustGPUMemory.
	LeaveGPUFrames int

	// InvariantInterval is the cycle period of the structural invariant
	// sweep sim.Run performs while this plan is attached (0 selects the
	// simulator default; negative disables periodic sweeps — the
	// end-of-run sweep always runs).
	InvariantInterval int64
}

// EventKind classifies an injected event.
type EventKind uint8

// The injected event kinds.
const (
	EventWalkFault EventKind = iota
	EventServiceDelay
	EventLinkJitter
	EventIssueStall
	EventForceSwitch
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventWalkFault:
		return "walk-fault"
	case EventServiceDelay:
		return "service-delay"
	case EventLinkJitter:
		return "link-jitter"
	case EventIssueStall:
		return "issue-stall"
	case EventForceSwitch:
		return "force-switch"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one injected perturbation, recorded for reproducibility
// checks and diagnostics.
type Event struct {
	Cycle int64
	Kind  EventKind
	// Arg is kind-specific: the faulted page VA, the injected delay in
	// cycles, or the SM ID.
	Arg uint64
}

// String renders the event.
func (e Event) String() string {
	return fmt.Sprintf("cycle %d: %s(%#x)", e.Cycle, e.Kind, e.Arg)
}

// Plan is a live injection plan. It implements the chaos hooks of the
// component packages (tlb.WalkInjector, host.Delayer,
// interconnect.Jitter, sm.Chaos); sim.Simulator.AttachChaos wires it
// through the whole system. A nil *Plan is a valid no-op everywhere it
// is accepted.
type Plan struct {
	cfg Config
	//simlint:ckptskip stream position is implied by the saved injection counters; replay re-draws the same sequence from cfg.Seed
	rng *rand.Rand
	//simlint:ckptskip clock hookup, fixed when the plan is attached; the queue checkpoints itself as the clock section
	now func() int64

	injectedPages  map[uint64]bool
	walkFaults     int
	issueStalls    int
	forcedSwitches int
	events         []Event
}

// New builds a plan from the config.
func New(cfg Config) *Plan {
	return &Plan{
		cfg:           cfg,
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		now:           func() int64 { return 0 },
		injectedPages: make(map[uint64]bool),
	}
}

// ForLevel returns a preset plan of increasing aggressiveness:
//
//	0 — no injection (the zero plan; costs nothing)
//	1 — timing noise: delayed fault services, jittered transfers
//	2 — level 1 plus transient walk faults and issue back-pressure
//	3 — fault storm: aggressive rates plus forced block switches
func ForLevel(level int, seed int64) (*Plan, error) {
	cfg := Config{Seed: seed}
	switch level {
	case 0:
	case 1:
		cfg.ServiceDelayMaxCycles = 2_000
		cfg.LinkJitterMaxCycles = 500
	case 2:
		cfg.ServiceDelayMaxCycles = 2_000
		cfg.LinkJitterMaxCycles = 500
		cfg.WalkFaultProb = 0.05
		cfg.MaxWalkFaults = 256
		cfg.IssueStallProb = 0.02
		cfg.MaxIssueStalls = 10_000
	case 3:
		cfg.ServiceDelayMaxCycles = 10_000
		cfg.LinkJitterMaxCycles = 2_000
		cfg.WalkFaultProb = 0.20
		cfg.MaxWalkFaults = 1_024
		cfg.IssueStallProb = 0.05
		cfg.MaxIssueStalls = 50_000
		cfg.ForceSwitchProb = 0.5
		cfg.MaxForcedSwitches = 64
	default:
		return nil, fmt.Errorf("chaos: level %d out of range [0,3]", level)
	}
	return New(cfg), nil
}

// Config returns the plan's configuration.
func (p *Plan) Config() Config { return p.cfg }

// Bind gives the plan access to the simulation clock so events carry
// cycle stamps. The simulator calls it at attach time.
func (p *Plan) Bind(now func() int64) {
	if now != nil {
		p.now = now
	}
}

func (p *Plan) record(kind EventKind, arg uint64) {
	p.events = append(p.events, Event{Cycle: p.now(), Kind: kind, Arg: arg})
}

// InjectWalkFault implements tlb.WalkInjector: it turns a hitting
// page-table walk into a transient alloc-only fault, at most once per
// page and MaxWalkFaults times in total.
func (p *Plan) InjectWalkFault(pageVA uint64) bool {
	if p == nil || p.cfg.WalkFaultProb <= 0 || p.walkFaults >= p.cfg.MaxWalkFaults {
		return false
	}
	if p.injectedPages[pageVA] {
		return false
	}
	if p.rng.Float64() >= p.cfg.WalkFaultProb {
		return false
	}
	p.injectedPages[pageVA] = true
	p.walkFaults++
	p.record(EventWalkFault, pageVA)
	return true
}

// ServiceDelay implements host.Delayer: extra cycles added to one CPU
// fault-service round trip.
func (p *Plan) ServiceDelay(regionBase uint64) int64 {
	if p == nil || p.cfg.ServiceDelayMaxCycles <= 0 {
		return 0
	}
	d := p.rng.Int63n(p.cfg.ServiceDelayMaxCycles)
	if d > 0 {
		p.record(EventServiceDelay, uint64(d))
	}
	return d
}

// TransferJitter implements interconnect.Jitter: extra occupancy cycles
// for one link transfer.
func (p *Plan) TransferJitter(cycles int64) int64 {
	if p == nil || p.cfg.LinkJitterMaxCycles <= 0 {
		return 0
	}
	d := p.rng.Int63n(p.cfg.LinkJitterMaxCycles)
	if d > 0 {
		p.record(EventLinkJitter, uint64(d))
	}
	return d
}

// StallIssue implements part of sm.Chaos: an artificial one-cycle issue
// stall for a global-memory instruction.
func (p *Plan) StallIssue(smID int, isReplay bool) bool {
	if p == nil || p.cfg.IssueStallProb <= 0 || p.issueStalls >= p.cfg.MaxIssueStalls {
		return false
	}
	if p.rng.Float64() >= p.cfg.IssueStallProb {
		return false
	}
	p.issueStalls++
	p.record(EventIssueStall, uint64(smID))
	return true
}

// ForceSwitch implements part of sm.Chaos: switch the faulting block
// out regardless of its pending-queue position.
func (p *Plan) ForceSwitch(smID int) bool {
	if p == nil || p.cfg.ForceSwitchProb <= 0 || p.forcedSwitches >= p.cfg.MaxForcedSwitches {
		return false
	}
	if p.rng.Float64() >= p.cfg.ForceSwitchProb {
		return false
	}
	p.forcedSwitches++
	p.record(EventForceSwitch, uint64(smID))
	return true
}

// Events returns the injected-event log in injection order.
func (p *Plan) Events() []Event {
	if p == nil {
		return nil
	}
	return p.events
}

// Fingerprint hashes the event log; two runs of the same plan on the
// same workload must produce equal fingerprints (bit-reproducibility).
func (p *Plan) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [17]byte
	for _, e := range p.Events() {
		binary.LittleEndian.PutUint64(buf[0:], uint64(e.Cycle))
		buf[8] = byte(e.Kind)
		binary.LittleEndian.PutUint64(buf[9:], e.Arg)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Summary renders per-kind injection counts on one line.
func (p *Plan) Summary() string {
	counts := map[EventKind]int{}
	for _, e := range p.Events() {
		counts[e.Kind]++
	}
	if len(counts) == 0 {
		return "no events injected"
	}
	var parts []string
	for _, k := range []EventKind{EventWalkFault, EventServiceDelay, EventLinkJitter, EventIssueStall, EventForceSwitch} {
		if n := counts[k]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, k))
		}
	}
	return strings.Join(parts, ", ")
}
