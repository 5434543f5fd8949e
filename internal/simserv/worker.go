package simserv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"gpues/internal/sim"
)

// RunMetrics is the result summary a worker attaches to a completion;
// it rides through the result cache verbatim, so a cache-served
// submission sees the original run's numbers.
type RunMetrics struct {
	Cycles     int64   `json:"cycles"`
	Committed  int64   `json:"committed"`
	Blocks     int     `json:"blocks"`
	LinkUtil   float64 `json:"link_util"`
	WalkFaults int64   `json:"walk_faults"`
	Exceptions int64   `json:"exceptions"`
}

// Worker pulls jobs from a coordinator and simulates them. Execution
// is sliced: the simulator advances SliceCycles at a time and the
// lease is renewed between slices, so a preemption request (drain,
// migration) is honored within one slice by checkpointing into the
// spool and handing the job back.
type Worker struct {
	Client *Client
	// Name identifies this worker in leases and results.
	Name string
	// Spool is the shared checkpoint spool directory (the
	// coordinator's SpoolDir when co-located; any shared path
	// otherwise).
	Spool string
	// SliceCycles is the renewal granularity in cycles; must be positive.
	SliceCycles int64
	// Poll is the idle claim interval; must be positive.
	Poll time.Duration
	// Log receives progress lines (nil = silent).
	Log func(string)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		w.Log(fmt.Sprintf(format, args...))
	}
}

// Run claims and executes jobs until ctx is canceled. Transport errors
// back off to the poll interval: the worker rides out a coordinator
// restart and resumes claiming from the recovered queue.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		claim, ok, err := w.Client.Claim(w.Name)
		if err != nil || !ok {
			if err != nil {
				w.logf("worker %s: claim: %v", w.Name, err)
			}
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(w.Poll):
			}
			continue
		}
		w.runJob(ctx, claim)
	}
}

// fail reports a failed attempt, rendering a stall report if the
// error carries one.
func (w *Worker) fail(claim ClaimResponse, err error) {
	req := FailRequest{JobID: claim.JobID, Worker: w.Name, Token: claim.Token, Error: err.Error()}
	var stall *sim.StallError
	if errors.As(err, &stall) {
		req.Error = fmt.Sprintf("stall: %s at cycle %d", stall.Report.Reason, stall.Report.Cycle)
		req.Stall = stall.Report.String()
	}
	if _, ferr := w.Client.Fail(req); ferr != nil {
		w.logf("worker %s: fail report for %s rejected: %v", w.Name, claim.JobID, ferr)
	}
}

func (w *Worker) runJob(ctx context.Context, claim ClaimResponse) {
	s, err := claim.Spec.NewSim()
	if err != nil {
		w.fail(claim, err)
		return
	}
	if claim.Checkpoint != "" {
		// Resume the preempted run. RestoreFile replays to the
		// checkpoint cycle and compares every component's digest, so a
		// corrupt or mismatched checkpoint surfaces here as a
		// DivergenceError; Fail wipes it and the retry starts clean.
		if err := s.RestoreFile(claim.Checkpoint); err != nil {
			w.fail(claim, fmt.Errorf("restore %s: %w", claim.Checkpoint, err))
			return
		}
		w.logf("worker %s: resumed %s from %s at cycle %d", w.Name, claim.JobID, claim.Checkpoint, s.Cycle())
	} else if err := s.Start(); err != nil {
		w.fail(claim, err)
		return
	}

	for {
		if ctx.Err() != nil {
			// Shutting down without a checkpoint: let the lease lapse,
			// the reaper requeues the job.
			return
		}
		reached, err := s.StepTo(s.Cycle() + w.SliceCycles)
		if err != nil {
			w.fail(claim, err)
			return
		}
		if !reached {
			// Launch finished: finalize (exception drain, telemetry
			// close) and report.
			res, err := s.Run()
			if err != nil {
				w.fail(claim, err)
				return
			}
			w.complete(claim, res)
			return
		}
		directive, err := w.Client.Renew(claim.JobID, w.Name, claim.Token)
		if err != nil {
			w.logf("worker %s: renew %s: %v", w.Name, claim.JobID, err)
			continue // transient transport error: keep simulating
		}
		switch directive {
		case DirectiveOK:
		case DirectivePreempt:
			w.preempt(claim, s)
			return
		case DirectiveLost:
			w.logf("worker %s: lease on %s lost, abandoning at cycle %d", w.Name, claim.JobID, s.Cycle())
			return
		default:
			w.logf("worker %s: unknown directive %q, abandoning", w.Name, directive)
			return
		}
	}
}

func (w *Worker) complete(claim ClaimResponse, res *sim.Result) {
	m := RunMetrics{
		Cycles:     res.Cycles,
		Committed:  res.Committed,
		Blocks:     res.Blocks,
		LinkUtil:   res.LinkUtil,
		WalkFaults: res.WalkFaults,
		Exceptions: res.Exceptions,
	}
	metrics, _ := json.Marshal(m)
	err := w.Client.Complete(CompleteRequest{
		JobID: claim.JobID, Worker: w.Name, Token: claim.Token,
		Cycles: res.Cycles, Committed: res.Committed, Metrics: metrics,
	})
	if err != nil {
		// A stale rejection (409) means the reaper reassigned the job;
		// the fencing token did its job and someone else's result wins.
		w.logf("worker %s: complete %s rejected: %v", w.Name, claim.JobID, err)
		return
	}
	w.logf("worker %s: completed %s in %d cycles", w.Name, claim.JobID, res.Cycles)
}

func (w *Worker) preempt(claim ClaimResponse, s *sim.Simulator) {
	dir := filepath.Join(w.Spool, claim.JobID, fmt.Sprintf("att%03d-%s", claim.Attempt, w.Name))
	path, err := s.WriteCheckpoint(dir)
	if err != nil {
		w.fail(claim, fmt.Errorf("preempt checkpoint: %w", err))
		return
	}
	err = w.Client.Preempt(PreemptRequest{
		JobID: claim.JobID, Worker: w.Name, Token: claim.Token, Checkpoint: path,
	})
	if err != nil {
		w.logf("worker %s: preempt handoff of %s rejected: %v", w.Name, claim.JobID, err)
		return
	}
	w.logf("worker %s: preempted %s at cycle %d -> %s", w.Name, claim.JobID, s.Cycle(), path)
}
