package simserv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gpues/internal/obs"
	"gpues/internal/runspec"
	"gpues/internal/simserv/queue"
)

// FabricSink receives fabric metric snapshots; obsrv.Server implements
// it, putting queue depth, retry counts and cache hit rates on the
// same Prometheus /metrics endpoint the simulator telemetry uses.
type FabricSink interface {
	PublishFabric(obs.Snapshot)
}

// Options parameterizes a coordinator.
type Options struct {
	// Queue carries the state-machine knobs: Cap (admission), Lease,
	// MaxRetries and Backoff, all durations in nanoseconds.
	Queue queue.Config
	// JournalDir roots the crash-only journal and checkpoint spool.
	JournalDir string
	// TenantRate/TenantBurst shape per-tenant admission: a token
	// bucket of TenantBurst capacity refilling at TenantRate
	// submissions per second. Rate 0 disables quotas.
	TenantRate  float64
	TenantBurst int
	// Sink, when set, receives a metrics snapshot after every state
	// change.
	Sink FabricSink
	// Now supplies the clock in nanoseconds; nil means wall time. Tests
	// inject a fake clock here and drive Tick explicitly.
	Now func() int64
}

// bucket is one tenant's token bucket.
type bucket struct {
	tokens float64
	last   int64
}

// Coordinator owns the job fabric: the queue state machine (which is
// also the result cache), the journal, admission control and the HTTP
// API.
// All state mutates under mu; the journal write lands before any
// transition is acknowledged over HTTP.
type Coordinator struct {
	opt Options
	mux *http.ServeMux

	mu       sync.Mutex
	q        *queue.Queue
	jr       *Journal
	buckets  map[string]*bucket
	idSeq    int64
	draining bool
	drained  chan struct{}
	drainDur int64 // last completed drain, ns

	cacheHits     int64
	cacheMisses   int64
	rejectedQuota int64
}

// NewCoordinator opens (or reopens) the fabric rooted at
// opt.JournalDir: journaled jobs are reloaded verbatim — leases
// included, so the reaper reclaims work from workers that died with
// the coordinator — and done jobs go on serving their keys.
func NewCoordinator(opt Options) (*Coordinator, error) {
	jr, err := OpenJournal(opt.JournalDir)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		opt:     opt,
		q:       queue.New(opt.Queue),
		jr:      jr,
		buckets: make(map[string]*bucket),
		drained: make(chan struct{}),
	}
	// Corrupt records are skipped, not fatal.
	jobs, _, err := jr.Load()
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		c.q.Load(j)
	}
	c.q.Reorder()
	c.buildMux()
	return c, nil
}

func (c *Coordinator) now() int64 {
	if c.opt.Now != nil {
		return c.opt.Now()
	}
	return time.Now().UnixNano()
}

// metrics reads the fabric metrics straight from their sources: the
// queue's event counts, the admission counts and live state. Caller
// holds mu.
func (c *Coordinator) metrics() obs.Snapshot {
	q := c.q.Counters()
	var draining int64
	if c.draining {
		draining = 1
	}
	return obs.Snapshot{
		Counters: map[string]int64{
			"fabric.jobs.submitted": q.Submitted,
			"fabric.jobs.completed": q.Completed,
			"fabric.jobs.coalesced": q.Coalesced,
			"fabric.failures":       q.Failures,
			"fabric.retries":        q.Retries,
			"fabric.lease.expiries": q.LeaseExpiries,
			"fabric.dead.letters":   q.DeadLetters,
			"fabric.stale.ops":      q.StaleOps,
			"fabric.preemptions":    q.Preemptions,
			"fabric.resumes":        q.Resumes,
			"fabric.rejected.full":  q.RejectedFull,
			"fabric.cache.hits":     c.cacheHits,
			"fabric.cache.misses":   c.cacheMisses,
			"fabric.rejected.quota": c.rejectedQuota,
		},
		Gauges: map[string]int64{
			"fabric.queue.depth":  int64(c.q.Depth()),
			"fabric.queue.leased": int64(c.q.Leased()),
			"fabric.draining":     draining,
			"fabric.drain.ms":     c.drainDur / int64(time.Millisecond),
		},
	}
}

// publish hands the current metrics to the sink. Caller holds mu.
func (c *Coordinator) publish() {
	if c.opt.Sink != nil {
		c.opt.Sink.PublishFabric(c.metrics())
	}
}

// MetricsSnapshot returns the current fabric metrics (for tests and
// the stats endpoint).
func (c *Coordinator) MetricsSnapshot() obs.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics()
}

// admit charges tenant one submission against its bucket. Caller
// holds mu. retryAfter is in whole seconds when rejected.
func (c *Coordinator) admit(tenant string, now int64) (ok bool, retryAfter int64) {
	if c.opt.TenantRate <= 0 {
		return true, 0
	}
	burst := float64(c.opt.TenantBurst)
	if burst < 1 {
		burst = 1
	}
	b, found := c.buckets[tenant]
	if !found {
		b = &bucket{tokens: burst, last: now}
		c.buckets[tenant] = b
	}
	b.tokens += float64(now-b.last) / float64(time.Second) * c.opt.TenantRate
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	sec := int64((1 - b.tokens) / c.opt.TenantRate)
	return false, sec + 1
}

// Tick runs the reaper: expired leases requeue (or dead-letter) and
// the journal is updated. The server loop calls it periodically; a
// fake-clock test calls it directly.
func (c *Coordinator) Tick(now int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	expired := c.q.ExpireLeases(now)
	for _, j := range expired {
		c.jr.Record(j) //nolint:errcheck // reaper: next transition rewrites
	}
	if len(expired) > 0 {
		c.publish()
	}
	c.checkDrained()
}

// Draining reports whether the coordinator is refusing new work.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Drain stops admission, asks every leased worker to checkpoint and
// hand back (finish-or-checkpoint: a worker that completes first is
// fine too), and waits until no lease remains or the timeout expires.
// All queue state is journaled as it happens, so a drained coordinator
// can stop and a successor resumes the queue, resuming preempted jobs
// from their checkpoints.
func (c *Coordinator) Drain(timeout time.Duration) error {
	c.mu.Lock()
	start := c.now()
	if !c.draining {
		c.draining = true
		for _, j := range c.q.Jobs() {
			if c.q.RequestPreempt(j.ID) {
				c.jr.Record(j) //nolint:errcheck // advisory flag
			}
		}
		c.publish()
	}
	c.checkDrained()
	drained := c.drained
	c.mu.Unlock()

	select {
	case <-drained:
	case <-time.After(timeout):
		return fmt.Errorf("simserv: drain timed out after %v with %d leases live", timeout, c.leasedNow())
	}
	c.mu.Lock()
	c.drainDur = c.now() - start
	c.publish()
	c.mu.Unlock()
	return nil
}

func (c *Coordinator) leasedNow() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.q.Leased()
}

// checkDrained closes the drain gate once no lease is live. Caller
// holds mu.
func (c *Coordinator) checkDrained() {
	if !c.draining || c.q.Leased() != 0 {
		return
	}
	select {
	case <-c.drained:
	default:
		close(c.drained)
	}
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

func (c *Coordinator) buildMux() {
	m := http.NewServeMux()
	m.HandleFunc("POST /v1/jobs", c.handleSubmit)
	m.HandleFunc("GET /v1/jobs", c.handleList)
	m.HandleFunc("GET /v1/jobs/{id}", c.handleGet)
	m.HandleFunc("POST /v1/claim", c.handleClaim)
	m.HandleFunc("POST /v1/renew", c.handleRenew)
	m.HandleFunc("POST /v1/complete", c.handleComplete)
	m.HandleFunc("POST /v1/fail", c.handleFail)
	m.HandleFunc("POST /v1/preempt", c.handlePreempt)
	m.HandleFunc("GET /v1/stats", c.handleStats)
	c.mux = m
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decode reads a request body into v. Unknown fields are an error, so a
// misspelled JobSpec axis is rejected instead of silently defaulted.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decode(w, r, &req) {
		return
	}
	// Validate and fingerprint outside the lock: building the workload
	// image is pure CPU and needs no coordinator state.
	key, err := req.Spec.Key()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if c.draining {
		writeErr(w, http.StatusServiceUnavailable, "coordinator is draining")
		return
	}
	if ok, after := c.admit(req.Tenant, now); !ok {
		c.rejectedQuota++
		c.publish()
		w.Header().Set("Retry-After", strconv.FormatInt(after, 10))
		writeErr(w, http.StatusTooManyRequests, "tenant %q over submission quota", req.Tenant)
		return
	}
	id := req.ID
	if id == "" {
		id = c.nextID()
	}
	spec, err := json.Marshal(req.Spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	j := &queue.Job{ID: id, Tenant: req.Tenant, Spec: spec, Key: key}
	if err := c.q.Submit(j, now); err != nil {
		switch err {
		case queue.ErrFull:
			// Admission backpressure: the queue is at Cap. Suggest a
			// half-lease wait — by then the reaper or a completion has
			// usually moved something.
			after := c.opt.Queue.Lease / (2 * int64(time.Second))
			if after < 1 {
				after = 1
			}
			c.publish()
			w.Header().Set("Retry-After", strconv.FormatInt(after, 10))
			writeErr(w, http.StatusTooManyRequests, "queue at capacity (%d jobs)", c.q.Depth())
		case queue.ErrDuplicate:
			writeErr(w, http.StatusConflict, "job %q already exists", id)
		default:
			writeErr(w, http.StatusBadRequest, "%v", err)
		}
		return
	}

	// An identical simulation that already ran to completion serves the
	// submission at admission with the original run's result and metrics.
	code := http.StatusAccepted
	if j.State == queue.Done {
		c.cacheHits++
		code = http.StatusOK
	} else {
		c.cacheMisses++
	}
	if err := c.jr.Record(j); err != nil {
		writeErr(w, http.StatusInternalServerError, "journal: %v", err)
		return
	}
	c.publish()
	writeJSON(w, code, SubmitResponse{ID: id, State: j.State.String(), Result: j.Result})
}

// nextID returns the next "j-%06d" ID the queue does not hold yet: a
// caller may pick IDs of that form itself, and a restarted coordinator
// counts from the start again. Caller holds mu.
func (c *Coordinator) nextID() string {
	for {
		c.idSeq++
		id := fmt.Sprintf("j-%06d", c.idSeq)
		if _, taken := c.q.Get(id); !taken {
			return id
		}
	}
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	jobs := c.q.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, statusOf(j))
	}
	writeJSON(w, http.StatusOK, out)
}

func (c *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.q.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, statusOf(j))
}

func (c *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Worker == "" {
		writeErr(w, http.StatusBadRequest, "empty worker name")
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		// Drain rejects new work; in-flight renew/complete/preempt
		// still lands.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	j, token, ok := c.q.Claim(req.Worker, c.now())
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	var spec runspec.JobSpec
	if err := json.Unmarshal(j.Spec, &spec); err != nil {
		writeErr(w, http.StatusInternalServerError, "corrupt job spec: %v", err)
		return
	}
	if err := c.jr.Record(j); err != nil {
		writeErr(w, http.StatusInternalServerError, "journal: %v", err)
		return
	}
	c.publish()
	writeJSON(w, http.StatusOK, ClaimResponse{
		JobID: j.ID, Token: token, Spec: spec,
		LeaseNS: c.opt.Queue.Lease, Checkpoint: j.Checkpoint, Attempt: j.Attempts,
	})
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if !decode(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	preempt, err := c.q.Renew(req.JobID, req.Worker, req.Token, c.now())
	if err != nil {
		writeJSON(w, http.StatusOK, RenewResponse{Directive: DirectiveLost})
		return
	}
	d := DirectiveOK
	if preempt {
		d = DirectivePreempt
	}
	writeJSON(w, http.StatusOK, RenewResponse{Directive: d})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decode(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	res := queue.Result{Cycles: req.Cycles, Committed: req.Committed, Metrics: req.Metrics}
	done, err := c.q.Complete(req.JobID, req.Worker, req.Token, res, c.now())
	if err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	for _, j := range done {
		if err := c.jr.Record(j); err != nil {
			writeErr(w, http.StatusInternalServerError, "journal: %v", err)
			return
		}
	}
	c.publish()
	c.checkDrained()
	writeJSON(w, http.StatusOK, map[string]int{"completed": len(done)})
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if !decode(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	retried, err := c.q.Fail(req.JobID, req.Worker, req.Token, req.Error, req.Stall, c.now())
	if err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	if j, ok := c.q.Get(req.JobID); ok {
		c.jr.Record(j) //nolint:errcheck // next transition rewrites
		for _, f := range c.q.Jobs() {
			if f.CoalescedInto == req.JobID && f.State == queue.Dead {
				c.jr.Record(f) //nolint:errcheck // same
			}
		}
	}
	c.publish()
	c.checkDrained()
	writeJSON(w, http.StatusOK, FailResponse{Retried: retried})
}

func (c *Coordinator) handlePreempt(w http.ResponseWriter, r *http.Request) {
	var req PreemptRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Checkpoint == "" {
		writeErr(w, http.StatusBadRequest, "empty checkpoint path")
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.q.Preempt(req.JobID, req.Worker, req.Token, req.Checkpoint, c.now()); err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	if j, ok := c.q.Get(req.JobID); ok {
		if err := c.jr.Record(j); err != nil {
			writeErr(w, http.StatusInternalServerError, "journal: %v", err)
			return
		}
	}
	c.publish()
	c.checkDrained()
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	writeJSON(w, http.StatusOK, Stats{
		Depth:         c.q.Depth(),
		Leased:        c.q.Leased(),
		Draining:      c.draining,
		Counters:      c.q.Counters(),
		CacheHits:     c.cacheHits,
		CacheMisses:   c.cacheMisses,
		RejectedQuota: c.rejectedQuota,
		DrainMS:       c.drainDur / int64(time.Millisecond),
	})
}

// SpoolDir returns the shared checkpoint spool directory workers
// write preemption checkpoints into.
func (c *Coordinator) SpoolDir() string { return c.jr.SpoolDir() }
