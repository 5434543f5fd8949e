package sim

import (
	"fmt"

	"gpues/internal/chaos"
	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/kernel"
	"gpues/internal/obs"
)

// DefaultInvariantInterval is the cycle period of the structural
// invariant sweep during chaos runs when the plan does not choose one.
const DefaultInvariantInterval = 100_000

// AttachChaos wires a chaos plan through every injection hook of the
// system — fill-unit walker, CPU fault service, interconnect, SMs —
// binds it to the simulation clock, applies plan-level resource
// exhaustion, and enables the periodic invariant sweep. When no tracer
// is attached yet it also attaches a small flight recorder (fault,
// switch, migrate and local events), so a failing run's StallReport
// carries the recent fault-lifecycle history; a tracer attached later
// with AttachTracer replaces it. A nil plan is a no-op. Call before Run.
func (s *Simulator) AttachChaos(p *chaos.Plan) {
	if p == nil {
		return
	}
	s.chaos = p
	p.Bind(s.q.Now)
	s.fu.SetInjector(p)
	s.cpu.SetDelayer(p)
	s.link.SetJitter(p)
	for _, m := range s.sms {
		m.SetChaos(p)
	}
	cfg := p.Config()
	if cfg.ExhaustGPUMemory {
		s.as.GPUPhys.Exhaust(cfg.LeaveGPUFrames)
	}
	interval := cfg.InvariantInterval
	switch {
	case interval == 0:
		interval = DefaultInvariantInterval
	case interval < 0:
		interval = 0 // periodic sweep disabled; end-of-run sweep remains
	}
	s.sweepEvery = interval
	s.nextSweep = interval
	if s.tracer == nil {
		mask, _ := obs.ParseFilter(chaosTraceFilter) // a constant, valid filter
		s.AttachTracer(obs.New(obs.Options{Filter: mask, RingSize: chaosRingSize}))
	}
}

// chaosRingSize bounds the chaos flight recorder: enough for the recent
// fault-lifecycle history without retaining a full run.
const chaosRingSize = 4096

// chaosTraceFilter is the chaos flight-recorder filter: the fault
// lifecycle plus context switching and both handler paths.
const chaosTraceFilter = "fault,switch,migrate,local"

// ChaosResult is the outcome of a chaos run: the timing result plus the
// injected-event log and the verdict of the restartability oracle.
type ChaosResult struct {
	*Result

	// Events is the injected-fault log; Fingerprint hashes it, so equal
	// seeds must yield equal fingerprints (bit-reproducibility).
	Events      []chaos.Event
	Fingerprint uint64
	// Summary is the one-line per-kind injection count.
	Summary string

	// Mismatches holds what CheckOracle found. Injected faults must
	// never change architectural results, so any entry here is a
	// restartability violation.
	Mismatches []emu.Mismatch
}

// maxOracleMismatches caps the bytes CheckOracle reports.
const maxOracleMismatches = 16

// CheckOracle is the restartability oracle. It re-executes the whole
// grid of l functionally on initial, a clone of the memory the timing
// run started from, and returns up to 16 bytes on which final, the
// timing run's memory, disagrees with it. However a run is preempted or
// perturbed, its architectural result must equal this re-execution.
// initial is overwritten.
func CheckOracle(l *kernel.Launch, initial, final *emu.Memory, lineB int) ([]emu.Mismatch, error) {
	em, err := emu.New(l, initial, lineB)
	if err != nil {
		return nil, fmt.Errorf("sim: functional oracle failed: %w", err)
	}
	for b := 0; b < l.Blocks(); b++ {
		if _, err := em.EmulateBlock(b); err != nil {
			return nil, fmt.Errorf("sim: functional oracle failed: %w", err)
		}
	}
	return final.Diff(initial, maxOracleMismatches), nil
}

// RunChaos builds a simulator for cfg/spec, attaches the plan, runs the
// launch, and checks it with CheckOracle. A nil plan runs clean. The
// returned ChaosResult carries the event log and fingerprint even when
// the run itself fails (its Result is nil in that case).
func RunChaos(cfg config.Config, spec LaunchSpec, plan *chaos.Plan) (*ChaosResult, error) {
	s, err := New(cfg, spec)
	if err != nil {
		return nil, err
	}
	initial := spec.Memory.Clone()
	s.AttachChaos(plan)
	r, err := s.Run()
	cr := &ChaosResult{
		Result:      r,
		Events:      plan.Events(),
		Fingerprint: plan.Fingerprint(),
		Summary:     plan.Summary(),
	}
	if err != nil {
		return cr, err
	}
	cr.Mismatches, err = CheckOracle(spec.Launch, initial, spec.Memory, cfg.SM.L1LineB)
	return cr, err
}
