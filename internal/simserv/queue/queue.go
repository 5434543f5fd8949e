// Package queue is the deterministic job-queue state machine at the
// heart of the simulation service: submission with a depth cap,
// claim/lease handout, lease renewal and expiry, exactly-once
// completion guarded by lease tokens, bounded retries with exponential
// backoff and hashed jitter, checkpoint-carrying preemption handoff,
// singleflight coalescing of identical submissions, serving a
// submission from an earlier done job with the same key (the result
// cache), and a terminal dead-letter state carrying the last stall
// report.
//
// The package is pure state: no goroutines, no wall clock, no global
// randomness. Every mutating operation takes the current time as an
// argument and the only randomness is an FNV jitter hash, so a
// test (or the fabric chaos campaign) can drive any interleaving of
// claims, expiries and completions and get bit-identical outcomes.
// The simlint determinism analyzer polices this contract.
//
//simlint:deterministic
package queue

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// State is one job's lifecycle state.
type State int

const (
	// Queued jobs are waiting for a claim (possibly backing off after a
	// failure, possibly coalesced behind an identical primary job).
	Queued State = iota
	// Leased jobs are held by a worker under a live lease.
	Leased
	// Done jobs completed exactly once and carry their result.
	Done
	// Dead jobs exhausted their retries: the dead-letter state, carrying
	// the last error and stall report.
	Dead
)

// String renders the state.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Leased:
		return "leased"
	case Done:
		return "done"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Result is one completed job's summary. Metrics rides as opaque JSON
// so the queue stays decoupled from the simulator's snapshot schema;
// a cache-served result carries the original run's metrics verbatim.
type Result struct {
	Cycles    int64           `json:"cycles"`
	Committed int64           `json:"committed"`
	Worker    string          `json:"worker,omitempty"`
	Metrics   json.RawMessage `json:"metrics,omitempty"`
	// CacheHit marks a result served from an earlier done job with the
	// same key or coalesced onto an identical in-flight job, rather than
	// simulated for this submission.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// Job is one unit of work. Fields are exported for the coordinator's
// journal; mutate only through Queue methods.
type Job struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	// Spec is the opaque job payload (the coordinator's JobSpec JSON).
	Spec []byte `json:"spec"`
	// Key is the dedup/cache key (the config+spec fingerprint pair);
	// empty disables coalescing and result serving for the job.
	Key string `json:"key,omitempty"`
	// Seq is the submission sequence number; claims hand out eligible
	// jobs in Seq order, so scheduling is FIFO and deterministic.
	Seq int64 `json:"seq"`

	State    State `json:"state"`
	Attempts int   `json:"attempts"` // claims handed out
	Retries  int   `json:"retries"`  // failures + lease expiries so far
	// NotBefore is the earliest time the job may be claimed again
	// (backoff after a failure).
	NotBefore int64 `json:"not_before,omitempty"`
	Submitted int64 `json:"submitted"`

	// Worker, Token and LeaseExpiry describe the current lease. Token
	// is the fencing token: completion and failure reports must present
	// the token of the lease they ran under, so a report from an
	// expired lease (the worker kept running after the reaper reclaimed
	// the job) is rejected instead of double-completing.
	Worker      string `json:"worker,omitempty"`
	Token       uint64 `json:"token,omitempty"`
	LeaseExpiry int64  `json:"lease_expiry,omitempty"`
	// PreemptRequested asks the worker to checkpoint and hand the job
	// back at its next lease renewal (graceful drain / migration).
	PreemptRequested bool `json:"preempt_requested,omitempty"`

	// Checkpoint is the in-flight checkpoint path a preempted job
	// resumes from on its next claim.
	Checkpoint string `json:"checkpoint,omitempty"`
	// CoalescedInto names the identical primary job this submission
	// rides on (singleflight); followers are never claimed.
	CoalescedInto string `json:"coalesced_into,omitempty"`

	LastError string `json:"last_error,omitempty"`
	// StallReport is the rendered sim.StallReport of the last stalled
	// attempt; on a Dead job it is the dead-letter diagnostic.
	StallReport string  `json:"stall_report,omitempty"`
	Result      *Result `json:"result,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (j *Job) Terminal() bool { return j.State == Done || j.State == Dead }

// Config parameterizes the queue. Durations share whatever time base
// the caller's now values use (the coordinator passes nanoseconds).
type Config struct {
	// Cap bounds the resident (Queued + Leased) job count; submissions
	// beyond it fail with ErrFull. 0 = unlimited.
	Cap int
	// Lease is the claim lease duration.
	Lease int64
	// MaxRetries bounds failures + lease expiries per job; one more
	// pushes the job to Dead.
	MaxRetries int
	// Backoff is the delay before a job's first retry; each further
	// retry doubles it, up to 8×Backoff.
	Backoff int64
}

// Counters are the queue's monotonic event counts, the source of the
// fabric metrics.
type Counters struct {
	Submitted     int64
	Coalesced     int64
	Completed     int64
	Failures      int64
	Retries       int64
	LeaseExpiries int64
	DeadLetters   int64
	// StaleOps counts rejected operations from expired or superseded
	// leases — each one is a duplicate execution the fencing token
	// stopped from becoming a duplicate completion.
	StaleOps     int64
	Preemptions  int64
	Resumes      int64
	RejectedFull int64
}

// Sentinel errors; the coordinator maps them onto HTTP statuses.
var (
	// ErrFull rejects a submission over the depth cap (HTTP 429).
	ErrFull = errors.New("queue: depth cap reached")
	// ErrStale rejects an operation whose lease no longer stands:
	// wrong worker, superseded token, or a job not in Leased state.
	ErrStale = errors.New("queue: stale lease")
	// ErrUnknown names a job ID the queue has never seen.
	ErrUnknown = errors.New("queue: unknown job")
	// ErrDuplicate rejects a submission reusing a known job ID.
	ErrDuplicate = errors.New("queue: duplicate job id")
)

// Queue is the job-queue state machine. Not safe for concurrent use:
// the coordinator serializes access under its own lock, tests drive it
// single-threaded.
type Queue struct {
	cfg      Config
	jobs     map[string]*Job
	order    []string // job IDs in Seq order
	seq      int64
	tokenSeq uint64
	resident int // Queued + Leased
	counts   Counters
}

// New builds an empty queue.
func New(cfg Config) *Queue {
	return &Queue{cfg: cfg, jobs: make(map[string]*Job)}
}

// Counters returns the current event counts.
func (q *Queue) Counters() Counters { return q.counts }

// Depth returns the resident (Queued + Leased) job count.
func (q *Queue) Depth() int { return q.resident }

// Leased returns the number of jobs currently under lease.
func (q *Queue) Leased() int {
	n := 0
	for _, id := range q.order {
		if q.jobs[id].State == Leased {
			n++
		}
	}
	return n
}

// Get returns the named job.
func (q *Queue) Get(id string) (*Job, bool) {
	j, ok := q.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (q *Queue) Jobs() []*Job {
	out := make([]*Job, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, q.jobs[id])
	}
	return out
}

// Submit enqueues a job. The job must carry ID, Spec and optionally
// Tenant/Key; the queue assigns Seq and state. A submission whose Key
// an earlier job already simulated to completion is served at once: it
// is Done with that job's result, marked as a cache hit, and needs no
// queue slot, so the depth cap does not apply. A submission whose Key
// matches a resident job coalesces onto it (singleflight): it occupies
// a queue slot and completes when the primary does, but is never
// claimed itself.
func (q *Queue) Submit(j *Job, now int64) error {
	if j.ID == "" {
		return fmt.Errorf("queue: empty job id")
	}
	if _, ok := q.jobs[j.ID]; ok {
		return ErrDuplicate
	}
	served := q.doneForKey(j.Key)
	if served == nil && q.cfg.Cap > 0 && q.resident >= q.cfg.Cap {
		q.counts.RejectedFull++
		return ErrFull
	}
	q.seq++
	j.Seq = q.seq
	j.Submitted = now
	if served != nil {
		res := *served.Result
		res.CacheHit = true
		j.State = Done
		j.Result = &res
		q.counts.Completed++
	} else {
		j.State = Queued
		if j.Key != "" {
			if primary := q.primaryForKey(j.Key); primary != nil {
				j.CoalescedInto = primary.ID
				q.counts.Coalesced++
			}
		}
		q.resident++
	}
	q.jobs[j.ID] = j
	q.order = append(q.order, j.ID)
	q.counts.Submitted++
	return nil
}

// doneForKey returns the earliest done job that simulated key itself
// (not a cache hit), whose result serves every later submission of it.
func (q *Queue) doneForKey(key string) *Job {
	if key == "" {
		return nil
	}
	for _, id := range q.order {
		j := q.jobs[id]
		if j.State == Done && j.Key == key && j.Result != nil && !j.Result.CacheHit {
			return j
		}
	}
	return nil
}

// primaryForKey returns the resident non-coalesced job carrying key.
func (q *Queue) primaryForKey(key string) *Job {
	for _, id := range q.order {
		j := q.jobs[id]
		if !j.Terminal() && j.Key == key && j.CoalescedInto == "" {
			return j
		}
	}
	return nil
}

// Load re-installs a journaled job verbatim (coordinator restart).
// Call for every journal record, then Reorder once.
func (q *Queue) Load(j *Job) {
	q.jobs[j.ID] = j
	q.order = append(q.order, j.ID)
	if !j.Terminal() {
		q.resident++
	}
	if j.Seq > q.seq {
		q.seq = j.Seq
	}
	if j.Token > q.tokenSeq {
		q.tokenSeq = j.Token
	}
}

// Reorder restores submission order after a batch of Loads.
func (q *Queue) Reorder() {
	sort.Slice(q.order, func(a, b int) bool {
		ja, jb := q.jobs[q.order[a]], q.jobs[q.order[b]]
		if ja.Seq != jb.Seq {
			return ja.Seq < jb.Seq
		}
		return ja.ID < jb.ID
	})
}

// Claim hands the first eligible queued job to worker under a fresh
// lease and returns it with its fencing token. Eligibility is FIFO by
// submission sequence: Queued, not coalesced, past its backoff.
func (q *Queue) Claim(worker string, now int64) (*Job, uint64, bool) {
	for _, id := range q.order {
		j := q.jobs[id]
		if j.State != Queued || j.CoalescedInto != "" || now < j.NotBefore {
			continue
		}
		j.State = Leased
		j.Worker = worker
		q.tokenSeq++
		j.Token = q.tokenSeq
		j.LeaseExpiry = now + q.cfg.Lease
		j.Attempts++
		if j.Checkpoint != "" {
			q.counts.Resumes++
		}
		return j, j.Token, true
	}
	return nil, 0, false
}

// lease validates that (worker, token) still holds the job's lease.
func (q *Queue) lease(id, worker string, token uint64) (*Job, error) {
	j, ok := q.jobs[id]
	if !ok {
		return nil, ErrUnknown
	}
	if j.State != Leased || j.Worker != worker || j.Token != token {
		q.counts.StaleOps++
		return nil, ErrStale
	}
	return j, nil
}

// Renew extends the lease and reports whether the coordinator has
// requested preemption (the worker should checkpoint and hand back).
func (q *Queue) Renew(id, worker string, token uint64, now int64) (preempt bool, err error) {
	j, err := q.lease(id, worker, token)
	if err != nil {
		return false, err
	}
	j.LeaseExpiry = now + q.cfg.Lease
	return j.PreemptRequested, nil
}

// Complete finishes the job exactly once: only the live lease's worker
// and token are accepted, so a report raced by the reaper (or replayed
// after a duplicate claim) fails with ErrStale. Followers coalesced
// onto the job complete with the same result, marked as cache hits.
// It returns the completed jobs (primary first).
func (q *Queue) Complete(id, worker string, token uint64, res Result, now int64) ([]*Job, error) {
	j, err := q.lease(id, worker, token)
	if err != nil {
		return nil, err
	}
	res.Worker = worker
	q.finish(j, &res)
	done := []*Job{j}
	for _, f := range q.followers(j.ID) {
		fres := res
		fres.CacheHit = true
		q.finish(f, &fres)
		done = append(done, f)
	}
	return done, nil
}

// finish moves a resident job to Done.
func (q *Queue) finish(j *Job, res *Result) {
	j.State = Done
	j.Result = res
	j.Worker = ""
	j.LeaseExpiry = 0
	j.PreemptRequested = false
	q.resident--
	q.counts.Completed++
}

// followers returns the jobs coalesced onto primary, in Seq order.
func (q *Queue) followers(primaryID string) []*Job {
	var out []*Job
	for _, id := range q.order {
		j := q.jobs[id]
		if j.CoalescedInto == primaryID && !j.Terminal() {
			out = append(out, j)
		}
	}
	return out
}

// Fail reports a failed attempt under a live lease: the job retries
// with backoff, or dead-letters once retries are exhausted. stall, when
// non-empty, is the rendered stall report to carry. A failure wipes
// any checkpoint: a stalled or crashed attempt's state is suspect, so
// the retry runs from scratch.
func (q *Queue) Fail(id, worker string, token uint64, errMsg, stall string, now int64) (retried bool, err error) {
	j, err := q.lease(id, worker, token)
	if err != nil {
		return false, err
	}
	q.counts.Failures++
	j.LastError = errMsg
	if stall != "" {
		j.StallReport = stall
	}
	j.Checkpoint = ""
	return q.requeueOrBury(j, now), nil
}

// Preempt hands a leased job back with an in-flight checkpoint: the
// next claim resumes at the exact checkpointed cycle on another
// worker. Preemption is cooperative (not a failure): no retry is
// consumed and no backoff applies.
func (q *Queue) Preempt(id, worker string, token uint64, checkpoint string, now int64) error {
	j, err := q.lease(id, worker, token)
	if err != nil {
		return err
	}
	j.State = Queued
	j.Worker = ""
	j.LeaseExpiry = 0
	j.NotBefore = 0
	j.PreemptRequested = false
	j.Checkpoint = checkpoint
	q.counts.Preemptions++
	return nil
}

// RequestPreempt marks a leased job for preemption; the worker learns
// at its next Renew. Unleased or terminal jobs are left alone.
func (q *Queue) RequestPreempt(id string) bool {
	j, ok := q.jobs[id]
	if !ok || j.State != Leased {
		return false
	}
	j.PreemptRequested = true
	return true
}

// ExpireLeases reclaims every leased job whose lease expired at or
// before now — the reaper pass that recovers jobs from dead or hung
// workers. Each expiry consumes a retry (the attempt may have run
// arbitrarily far); exhausted jobs dead-letter. It returns the
// reclaimed jobs.
func (q *Queue) ExpireLeases(now int64) []*Job {
	var out []*Job
	for _, id := range q.order {
		j := q.jobs[id]
		if j.State != Leased || j.LeaseExpiry > now {
			continue
		}
		q.counts.LeaseExpiries++
		if j.LastError == "" {
			j.LastError = fmt.Sprintf("lease expired on worker %s", j.Worker)
		} else {
			j.LastError = fmt.Sprintf("lease expired on worker %s (previous: %s)", j.Worker, j.LastError)
		}
		// A mid-run checkpoint from the dead worker's attempt is still
		// trustworthy — restore audits its digests against a
		// replay, so a corrupt one fails the next attempt cleanly.
		q.requeueOrBury(j, now)
		out = append(out, j)
	}
	return out
}

// requeueOrBury applies the retry budget: under it, the job requeues
// with exponential backoff + hashed jitter; over it, the job (and any
// followers) dead-letters. Reports whether the job was requeued.
func (q *Queue) requeueOrBury(j *Job, now int64) bool {
	// The fencing token stays burned; the next claim mints a new one, so
	// any report from this attempt is stale from here on.
	j.Retries++
	j.Worker = ""
	j.LeaseExpiry = 0
	j.PreemptRequested = false
	if j.Retries > q.cfg.MaxRetries {
		q.bury(j)
		return false
	}
	q.counts.Retries++
	j.State = Queued
	j.NotBefore = now + q.backoff(j)
	return true
}

// bury dead-letters the job and every follower coalesced onto it.
func (q *Queue) bury(j *Job) {
	j.State = Dead
	q.resident--
	q.counts.DeadLetters++
	for _, f := range q.followers(j.ID) {
		f.State = Dead
		f.LastError = fmt.Sprintf("coalesced primary %s dead-lettered: %s", j.ID, j.LastError)
		q.resident--
		q.counts.DeadLetters++
	}
}

// backoff computes the delay before the job's next attempt:
// Backoff × 2^(retries-1), capped at 8×Backoff, plus a deterministic
// jitter in [0, backoff/2) hashed from (job ID, retry count) — spread
// without a shared RNG.
func (q *Queue) backoff(j *Job) int64 {
	if q.cfg.Backoff <= 0 {
		return 0
	}
	d := q.cfg.Backoff << min(j.Retries-1, 3)
	if half := d / 2; half > 0 {
		d += int64(jitterHash(j.ID, j.Retries) % uint64(half))
	}
	return d
}

// jitterHash is FNV-1a over (id, attempt).
func jitterHash(id string, attempt int) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(b byte) { h ^= uint64(b); h *= prime }
	for i := 0; i < len(id); i++ {
		mix(id[i])
	}
	for i := 0; i < 8; i++ {
		mix(byte(uint64(attempt) >> (8 * i)))
	}
	return h
}
