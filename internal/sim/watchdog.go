package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gpues/internal/host"
	"gpues/internal/obs"
	"gpues/internal/sm"
)

// DefaultProgressWindow is the watchdog window: a simulation that makes
// no progress for this many cycles aborts with a stall report — 0.1% of
// DefaultMaxCycles, so livelocks surface three orders of magnitude
// sooner than the hard cycle bound.
const DefaultProgressWindow = 2_000_000

// watchdog detects livelock: it fires when the progress signature stays
// unchanged for a full window of cycles.
type watchdog struct {
	window   int64
	lastSig  int64
	lastMove int64 // cycle the signature last changed
}

// observe reports whether the run has stalled as of cycle.
func (w *watchdog) observe(cycle, sig int64) bool {
	if sig != w.lastSig {
		w.lastSig = sig
		w.lastMove = cycle
		return false
	}
	return cycle-w.lastMove >= w.window
}

// progressSignature folds every form of forward progress into one
// counter: committed instructions, block issue/completion, fault
// resolutions (pages mapped on either handler) and context movement.
// Re-walks and re-translations are deliberately excluded — a fault loop
// that never resolves must read as no progress.
func (s *Simulator) progressSignature() int64 {
	var sig int64
	for _, m := range s.sms {
		sig += m.Progress()
	}
	sig += int64(s.disp.Issued()) + int64(s.disp.Completed())
	sig += s.cpu.Stats().PagesMapped
	if s.local != nil {
		sig += s.local.Stats().PagesMapped
	}
	return sig
}

// StallReport is the structured diagnostic emitted when a run aborts
// without completing: deadlock (all SMs idle, no pending events),
// livelock (watchdog window expired), an invariant violation, or the
// hard MaxCycles bound.
type StallReport struct {
	Reason string // "deadlock", "watchdog", "invariant" or "max-cycles"
	Cycle  int64
	// Window is the watchdog window that expired (watchdog reason).
	Window int64
	// Violations lists invariant violations (invariant reason).
	Violations []string
	// Checkpoint is the path of the automatic stall checkpoint (empty
	// when checkpointing is off or the stall state is not resumable).
	Checkpoint string

	Committed     int64
	BlocksIssued  int
	BlocksDone    int
	BlocksPending int
	FaultQueue    int // pending fault queue length
	CPUFaults     host.FaultStats
	FillBusy      int // active page table walkers
	FillQueued    int // walks waiting for a walker
	L2MSHRs       int
	L2TLBMSHRs    int
	EventsPending int // events left in the clock queue
	SMs           []sm.Snapshot
	// Trace holds the newest tracer events at the time of the stall
	// (empty when no tracer was attached) — the flight recorder.
	Trace []obs.Event
	// LastSample is the most recent telemetry sample (zero unless
	// Config.SampleEvery was positive) — the metric trajectory into
	// the stall, complementing the event tail above.
	LastSample obs.SamplePoint
}

// String renders the full multi-line report.
func (r StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stall report (%s) at cycle %d", r.Reason, r.Cycle)
	if r.Reason == "watchdog" {
		fmt.Fprintf(&b, ": no progress for %d cycles", r.Window)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  violation: %s", v)
	}
	fmt.Fprintf(&b, "\n  blocks: %d issued, %d done, %d pending; %d instructions committed",
		r.BlocksIssued, r.BlocksDone, r.BlocksPending, r.Committed)
	fmt.Fprintf(&b, "\n  faults: queue=%d, CPU served=%d (queue wait %d cycles)",
		r.FaultQueue, r.CPUFaults.Served, r.CPUFaults.QueueCycles)
	fmt.Fprintf(&b, "\n  translation: %d walkers busy, %d walks queued, L2TLB MSHRs=%d, L2 MSHRs=%d",
		r.FillBusy, r.FillQueued, r.L2TLBMSHRs, r.L2MSHRs)
	fmt.Fprintf(&b, "\n  clock: %d events pending", r.EventsPending)
	if r.Checkpoint != "" {
		fmt.Fprintf(&b, "\n  checkpoint: %s", r.Checkpoint)
	}
	for _, snap := range r.SMs {
		if snap.Assigned == 0 {
			continue // an SM with no work cannot be the culprit
		}
		fmt.Fprintf(&b, "\n%s", snap)
	}
	if r.LastSample.Values != nil {
		fmt.Fprintf(&b, "\n  last %s", r.LastSample)
	}
	if len(r.Trace) > 0 {
		fmt.Fprintf(&b, "\n  last %d trace events:", len(r.Trace))
		for _, e := range r.Trace {
			fmt.Fprintf(&b, "\n    %s", e)
		}
	}
	return b.String()
}

// StallError is the error a non-completing run returns; it carries the
// full report (errors.As recovers it for programmatic access).
type StallError struct {
	Report StallReport
}

// Error renders the report: a stalled simulation is terminal, so the
// diagnostics ride on the error itself.
func (e *StallError) Error() string {
	return "sim: " + e.Report.String()
}

// stallTraceEvents is how many of the newest tracer events ride on a
// stall report.
const stallTraceEvents = 64

// stallError captures the system state into a StallError.
func (s *Simulator) stallError(reason string, violations []string) error {
	rep := StallReport{
		Reason:        reason,
		Cycle:         s.q.Now(),
		Violations:    violations,
		BlocksIssued:  s.disp.Issued(),
		BlocksDone:    s.disp.Completed(),
		BlocksPending: s.disp.PendingBlocks(),
		FaultQueue:    s.funit.Pending(),
		CPUFaults:     s.cpu.Stats(),
		FillBusy:      s.fu.Busy(),
		FillQueued:    s.fu.Queued(),
		L2MSHRs:       s.l2.InFlight(),
		L2TLBMSHRs:    s.l2tlb.InFlight(),
		EventsPending: s.q.Len(),
	}
	if reason == "watchdog" {
		rep.Window = s.progressWindow
	}
	rep.Trace = s.tracer.Tail(stallTraceEvents)
	if s.sampler.Len() > 0 {
		rep.LastSample = s.sampler.Last()
	}
	for _, m := range s.sms {
		st := m.Stats()
		rep.Committed += st.Committed
		rep.SMs = append(rep.SMs, m.Snapshot())
	}
	// Write an automatic checkpoint so the stall state can be reloaded
	// for bisection or inspection. Only loop-top reasons qualify: a
	// deadlock is raised after the cycle's ticks, where the state no
	// longer matches what a replay to this cycle would reach.
	if s.CheckpointDir != "" && !s.replaying && reason != "deadlock" && !s.finished() {
		if err := os.MkdirAll(s.CheckpointDir, 0o755); err == nil {
			path := filepath.Join(s.CheckpointDir, fmt.Sprintf("stall-%012d.ckpt", rep.Cycle))
			if err := s.Capture().WriteFile(path); err == nil {
				rep.Checkpoint = path
			}
		}
	}
	return &StallError{Report: rep}
}

// maxMSHRAge bounds how long any cache or TLB miss may legitimately
// stay outstanding; it tracks the watchdog window, which already bounds
// system-wide progress gaps.
func (s *Simulator) maxMSHRAge() int64 {
	if s.progressWindow > 0 {
		return s.progressWindow
	}
	return DefaultProgressWindow
}

// CheckInvariants sweeps the structural invariants of the whole system:
// block conservation across dispatcher and SMs, per-SM scoreboard and
// block bookkeeping, cache/TLB MSHR occupancy and leak detection, and
// fill-unit walker accounting. It returns one message per violation.
func (s *Simulator) CheckInvariants() []string {
	var v []string
	now := s.q.Now()
	maxAge := s.maxMSHRAge()

	// Block conservation: every block handed out is either done or
	// owned by exactly one SM (resident or switched out).
	assigned := 0
	for _, m := range s.sms {
		assigned += m.AssignedBlocks()
	}
	if got, want := s.disp.Completed()+assigned, s.disp.Issued(); got != want {
		v = append(v, fmt.Sprintf("block conservation: %d issued but %d done + %d assigned",
			want, s.disp.Completed(), assigned))
	}
	for _, m := range s.sms {
		v = append(v, m.CheckInvariants(now, maxAge)...)
	}
	v = append(v, s.l2.CheckInvariants(now, maxAge)...)
	v = append(v, s.l2tlb.CheckInvariants(now, maxAge)...)
	v = append(v, s.fu.CheckInvariants()...)
	return v
}
