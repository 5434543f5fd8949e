// Package simserv is the simulation-as-a-service job fabric: a
// coordinator that accepts simulation jobs over HTTP/JSON and hands
// them to pull-based workers under a claim/lease protocol, with
// bounded retries, a fingerprint-keyed result cache, per-tenant
// admission control, a crash-only journal, and a graceful drain that
// requeues every leased job. The deterministic queue state machine underneath
// lives in simserv/queue; this package owns everything with a clock,
// a socket or a disk.
package simserv

import (
	"encoding/json"

	"gpues/internal/runspec"
	"gpues/internal/simserv/queue"
)

// The wire types of the fabric's HTTP/JSON API (documented in
// docs/simserver.md). Every request is a POST with a JSON body unless
// noted; errors come back as {"error": "..."} with a 4xx/5xx status.

// SubmitRequest enqueues one simulation job.
type SubmitRequest struct {
	// ID is the caller's idempotency key; empty lets the coordinator
	// assign one.
	ID     string          `json:"id,omitempty"`
	Tenant string          `json:"tenant,omitempty"`
	Spec   runspec.JobSpec `json:"spec"`
}

// SubmitResponse acknowledges a submission. A result-cache hit
// completes the job at admission: State is "done" and Result is set
// before any worker hears about it.
type SubmitResponse struct {
	ID     string        `json:"id"`
	State  string        `json:"state"`
	Result *queue.Result `json:"result,omitempty"`
}

// ClaimRequest asks for work on behalf of a worker.
type ClaimRequest struct {
	Worker string `json:"worker"`
}

// ClaimResponse hands out one job under a fresh lease; the worker runs
// it from cycle zero. A 204 means no work.
type ClaimResponse struct {
	JobID string          `json:"job_id"`
	Token uint64          `json:"token"`
	Spec  runspec.JobSpec `json:"spec"`
	// LeaseNS is the lease duration in nanoseconds; the worker must
	// renew well inside it or the reaper hands the job to someone else.
	LeaseNS int64 `json:"lease_ns"`
	Attempt int   `json:"attempt"`
}

// RenewRequest extends a lease mid-run.
type RenewRequest struct {
	JobID  string `json:"job_id"`
	Worker string `json:"worker"`
	Token  uint64 `json:"token"`
}

// Renew directives.
const (
	// DirectiveOK: keep running.
	DirectiveOK = "ok"
	// DirectiveLost: the lease is gone (expired, requeued by a drain,
	// or superseded) — abandon the run; any report would be rejected as
	// stale anyway.
	DirectiveLost = "lost"
)

// RenewResponse carries the coordinator's directive.
type RenewResponse struct {
	Directive string `json:"directive"`
}

// CompleteRequest reports a finished simulation.
type CompleteRequest struct {
	JobID     string `json:"job_id"`
	Worker    string `json:"worker"`
	Token     uint64 `json:"token"`
	Cycles    int64  `json:"cycles"`
	Committed int64  `json:"committed"`
	// Metrics is the worker's result summary (opaque to the fabric;
	// cached and returned verbatim to every submitter of this spec).
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// FailRequest reports a failed attempt.
type FailRequest struct {
	JobID  string `json:"job_id"`
	Worker string `json:"worker"`
	Token  uint64 `json:"token"`
	Error  string `json:"error"`
	// Stall is the rendered sim stall report, when the failure was a
	// stall; it rides to the dead-letter state.
	Stall string `json:"stall,omitempty"`
}

// FailResponse reports the job's fate.
type FailResponse struct {
	// Retried: the job was requeued with backoff. False: dead-lettered.
	Retried bool `json:"retried"`
}

// JobStatus is one job's externally visible state.
type JobStatus struct {
	ID          string        `json:"id"`
	Tenant      string        `json:"tenant,omitempty"`
	State       string        `json:"state"`
	Attempts    int           `json:"attempts"`
	Retries     int           `json:"retries"`
	Worker      string        `json:"worker,omitempty"`
	Coalesced   string        `json:"coalesced_into,omitempty"`
	LastError   string        `json:"last_error,omitempty"`
	StallReport string        `json:"stall_report,omitempty"`
	Result      *queue.Result `json:"result,omitempty"`
}

// Stats is the /v1/stats document.
type Stats struct {
	Depth    int            `json:"depth"`
	Leased   int            `json:"leased"`
	Draining bool           `json:"draining"`
	Counters queue.Counters `json:"counters"`
	// CacheHits/CacheMisses count submit-time result-cache lookups.
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	RejectedQuota int64 `json:"rejected_quota"`
}

func statusOf(j *queue.Job) JobStatus {
	return JobStatus{
		ID:          j.ID,
		Tenant:      j.Tenant,
		State:       j.State.String(),
		Attempts:    j.Attempts,
		Retries:     j.Retries,
		Worker:      j.Worker,
		Coalesced:   j.CoalescedInto,
		LastError:   j.LastError,
		StallReport: j.StallReport,
		Result:      j.Result,
	}
}
