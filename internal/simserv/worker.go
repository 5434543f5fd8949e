package simserv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
// lease is renewed between slices. A lost lease (expired, or requeued
// by a drain) ends the run at the next renewal; the job's next claim
// runs it from cycle zero, on any worker.
type Worker struct {
	Client *Client
	// Name identifies this worker in leases and results.
	Name string
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
// restart and goes on claiming from the recovered queue.
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
	if err := s.Start(); err != nil {
		w.fail(claim, err)
		return
	}

	for {
		if ctx.Err() != nil {
			// Shutting down: let the lease lapse, the reaper requeues
			// the job.
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
