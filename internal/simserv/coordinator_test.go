package simserv

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpues/internal/atomicio"
	"gpues/internal/obs"
	"gpues/internal/runspec"
	"gpues/internal/sim"
	"gpues/internal/simserv/queue"
)

// harness is a coordinator under a fake clock behind a real HTTP
// server. Tests drive time via advance() and the reaper via tick(), so
// every lease expiry and backoff is deterministic.
type harness struct {
	t     *testing.T
	dir   string
	now   *atomic.Int64
	coord *Coordinator
	srv   *httptest.Server
	cl    *Client
}

func defaultOptions(dir string, now *atomic.Int64) Options {
	return Options{
		Queue: queue.Config{
			Cap:        16,
			Lease:      int64(10 * time.Second),
			MaxRetries: 2,
			Backoff:    int64(time.Millisecond),
		},
		JournalDir: dir,
		Now:        now.Load,
	}
}

func newHarness(t *testing.T, mut func(*Options)) *harness {
	t.Helper()
	h := &harness{t: t, dir: t.TempDir(), now: &atomic.Int64{}}
	h.now.Store(int64(time.Hour)) // arbitrary nonzero epoch
	opt := defaultOptions(h.dir, h.now)
	if mut != nil {
		mut(&opt)
	}
	h.start(opt)
	return h
}

func (h *harness) start(opt Options) {
	h.t.Helper()
	coord, err := NewCoordinator(opt)
	if err != nil {
		h.t.Fatal(err)
	}
	h.coord = coord
	h.srv = httptest.NewServer(coord)
	h.t.Cleanup(h.srv.Close)
	h.cl = &Client{Base: h.srv.URL}
}

// restart abandons the running coordinator (a SIGKILL: no drain, no
// flush beyond what the journal already holds) and opens a fresh one
// on the same journal under the same clock.
func (h *harness) restart(mut func(*Options)) {
	h.t.Helper()
	h.srv.Close()
	opt := defaultOptions(h.dir, h.now)
	if mut != nil {
		mut(&opt)
	}
	h.start(opt)
}

func (h *harness) advance(d time.Duration) {
	h.now.Add(int64(d))
	h.coord.Tick(h.now.Load())
}

func (h *harness) submit(t *testing.T, req SubmitRequest) SubmitResponse {
	t.Helper()
	resp, err := h.cl.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

var specSgemm = runspec.JobSpec{Benchmark: "sgemm", Scale: 1}

func TestSubmitClaimCompleteHTTP(t *testing.T) {
	h := newHarness(t, nil)
	resp := h.submit(t, SubmitRequest{Spec: specSgemm})
	if resp.State != "queued" || resp.ID == "" {
		t.Fatalf("submit = %+v", resp)
	}

	claim, ok, err := h.cl.Claim("w1")
	if err != nil || !ok {
		t.Fatalf("claim: %v ok=%v", err, ok)
	}
	if claim.JobID != resp.ID || claim.Token == 0 || claim.Spec.Benchmark != "sgemm" {
		t.Fatalf("claim = %+v", claim)
	}
	if d, err := h.cl.Renew(claim.JobID, "w1", claim.Token); err != nil || d != DirectiveOK {
		t.Fatalf("renew = %q, %v", d, err)
	}
	err = h.cl.Complete(CompleteRequest{
		JobID: claim.JobID, Worker: "w1", Token: claim.Token,
		Cycles: 12345, Committed: 99, Metrics: []byte(`{"cycles":12345}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.cl.Job(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Result == nil || st.Result.Cycles != 12345 || st.Result.Worker != "w1" {
		t.Fatalf("status = %+v", st)
	}
	// Duplicate completion: fenced with 409.
	err = h.cl.Complete(CompleteRequest{JobID: claim.JobID, Worker: "w1", Token: claim.Token, Cycles: 1})
	if !IsStatus(err, http.StatusConflict) {
		t.Fatalf("duplicate complete: %v, want 409", err)
	}
	stats, err := h.cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters.Completed != 1 || stats.Counters.StaleOps != 1 || stats.Depth != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestUnknownSpecRejectedAtAdmission(t *testing.T) {
	h := newHarness(t, nil)
	_, err := h.cl.Submit(SubmitRequest{Spec: runspec.JobSpec{Benchmark: "nope"}})
	if !IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("unknown benchmark: %v, want 400", err)
	}
	_, err = h.cl.Submit(SubmitRequest{Spec: runspec.JobSpec{Benchmark: "sgemm", Scheme: "bogus"}})
	if !IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("unknown scheme: %v, want 400", err)
	}
	_, err = h.cl.Submit(SubmitRequest{Spec: runspec.JobSpec{Benchmark: "sgemm", Switching: true}})
	if !IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("switching on baseline: %v, want 400", err)
	}
	// A misspelled axis must not silently run the default.
	err = h.cl.post("/v1/jobs", json.RawMessage(`{"spec":{"benchmark":"sgemm","schme":"replay-queue"}}`), nil)
	if !IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("unknown spec field: %v, want 400", err)
	}
}

// TestOversizedScaleRejectedBeforeBuild: admission fingerprints the
// workload image, so an unbounded scale would make the coordinator
// build a huge one before replying. One past the maximum scale must
// get a 400 instead, without any workload being built.
func TestOversizedScaleRejectedBeforeBuild(t *testing.T) {
	h := newHarness(t, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := h.cl.Submit(SubmitRequest{Spec: runspec.JobSpec{Benchmark: "stencil", Scale: 9}})
	runtime.ReadMemStats(&after)
	if !IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("scale 9: %v, want 400", err)
	}
	// Stencil's image is 40 MiB at scale 9; the request itself takes a
	// few KiB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("admission allocated %d bytes: a workload was built", grew)
	}
}

func TestAdmissionCapReturns429WithRetryAfter(t *testing.T) {
	h := newHarness(t, func(o *Options) { o.Queue.Cap = 2 })
	h.submit(t, SubmitRequest{ID: "a", Spec: specSgemm})
	h.submit(t, SubmitRequest{ID: "b", Spec: runspec.JobSpec{Benchmark: "sgemm", Scale: 2}})
	_, err := h.cl.Submit(SubmitRequest{ID: "c", Spec: specSgemm})
	if !IsStatus(err, http.StatusTooManyRequests) {
		t.Fatalf("over-cap submit: %v, want 429", err)
	}
	if RetryAfter(err) == "" {
		t.Fatal("429 without Retry-After")
	}
	// Duplicate ID is a conflict, not a capacity problem.
	_, err = h.cl.Submit(SubmitRequest{ID: "a", Spec: specSgemm})
	if !IsStatus(err, http.StatusConflict) {
		t.Fatalf("duplicate id: %v, want 409", err)
	}
}

// Auto-assigned IDs skip IDs the queue already holds, whether a caller
// chose them or a coordinator before a restart assigned them.
func TestAutoIDSkipsTakenIDs(t *testing.T) {
	h := newHarness(t, nil)
	h.submit(t, SubmitRequest{ID: "j-000002", Spec: specSgemm})
	var ids []string
	for i := 0; i < 2; i++ {
		ids = append(ids, h.submit(t, SubmitRequest{Spec: specSgemm}).ID)
	}
	h.restart(nil)
	ids = append(ids, h.submit(t, SubmitRequest{Spec: specSgemm}).ID)
	if want := []string{"j-000001", "j-000003", "j-000004"}; !slices.Equal(ids, want) {
		t.Fatalf("auto IDs = %v, want %v", ids, want)
	}
}

func TestTenantQuota(t *testing.T) {
	h := newHarness(t, func(o *Options) {
		o.TenantRate = 1 // 1/s
		o.TenantBurst = 1
	})
	h.submit(t, SubmitRequest{ID: "a", Tenant: "alice", Spec: specSgemm})
	_, err := h.cl.Submit(SubmitRequest{ID: "b", Tenant: "alice", Spec: specSgemm})
	if !IsStatus(err, http.StatusTooManyRequests) || RetryAfter(err) == "" {
		t.Fatalf("over-quota: %v (retry-after %q), want 429", err, RetryAfter(err))
	}
	// Another tenant has its own bucket.
	h.submit(t, SubmitRequest{ID: "c", Tenant: "bob", Spec: specSgemm})
	// The bucket refills with (fake) time.
	h.advance(2 * time.Second)
	h.submit(t, SubmitRequest{ID: "d", Tenant: "alice", Spec: specSgemm})
	stats, _ := h.cl.Stats()
	if stats.RejectedQuota != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestLeaseExpiryRequeuesAndFencesOverHTTP(t *testing.T) {
	h := newHarness(t, nil)
	resp := h.submit(t, SubmitRequest{Spec: specSgemm})
	claim, ok, _ := h.cl.Claim("w1")
	if !ok {
		t.Fatal("no claim")
	}
	h.advance(11 * time.Second) // past the 10s lease: reaper requeues
	if d, _ := h.cl.Renew(claim.JobID, "w1", claim.Token); d != DirectiveLost {
		t.Fatalf("zombie renew directive = %q, want lost", d)
	}
	h.advance(10 * time.Millisecond) // past retry backoff
	claim2, ok, _ := h.cl.Claim("w2")
	if !ok || claim2.JobID != resp.ID || claim2.Attempt != 2 {
		t.Fatalf("reclaim = %+v ok=%v", claim2, ok)
	}
	// The zombie's completion is fenced; the live worker's lands.
	err := h.cl.Complete(CompleteRequest{JobID: resp.ID, Worker: "w1", Token: claim.Token, Cycles: 666})
	if !IsStatus(err, http.StatusConflict) {
		t.Fatalf("zombie complete: %v, want 409", err)
	}
	if err := h.cl.Complete(CompleteRequest{JobID: resp.ID, Worker: "w2", Token: claim2.Token, Cycles: 777}); err != nil {
		t.Fatal(err)
	}
	st, _ := h.cl.Job(resp.ID)
	if st.State != "done" || st.Result.Cycles != 777 {
		t.Fatalf("final = %+v", st)
	}
}

func TestFailRetriesThenDeadLetterWithStall(t *testing.T) {
	h := newHarness(t, nil) // MaxRetries 2: 3 attempts
	resp := h.submit(t, SubmitRequest{Spec: specSgemm})
	for attempt := 1; ; attempt++ {
		h.advance(20 * time.Millisecond) // past any backoff
		claim, ok, err := h.cl.Claim("w")
		if err != nil || !ok {
			t.Fatalf("claim %d: %v ok=%v", attempt, err, ok)
		}
		retried, err := h.cl.Fail(FailRequest{
			JobID: claim.JobID, Worker: "w", Token: claim.Token,
			Error: "stall: watchdog", Stall: "stall report (watchdog) at cycle 5000",
		})
		if err != nil {
			t.Fatal(err)
		}
		if !retried {
			if attempt != 3 {
				t.Fatalf("dead-lettered after %d attempts, want 3", attempt)
			}
			break
		}
	}
	st, _ := h.cl.Job(resp.ID)
	if st.State != "dead" || st.StallReport == "" || st.Retries != 3 {
		t.Fatalf("dead letter = %+v", st)
	}
	// Dead jobs stay visible (the dead-letter queue) but hold no slot.
	stats, _ := h.cl.Stats()
	if stats.Depth != 0 || stats.Counters.DeadLetters != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

// The crash-recovery acceptance: a coordinator that vanishes without
// any shutdown path (SIGKILL) must restart into exactly the queue it
// last acknowledged — done stays done with its result, leased work is
// reclaimed by the reaper, nothing is lost or duplicated.
func TestCoordinatorRestartRecoversQueue(t *testing.T) {
	h := newHarness(t, nil)
	// Three jobs: one completes, one is mid-lease, one never claimed.
	done := h.submit(t, SubmitRequest{ID: "done-job", Spec: specSgemm})
	leased := h.submit(t, SubmitRequest{ID: "leased-job", Spec: runspec.JobSpec{Benchmark: "sgemm", Scale: 2}})
	_ = h.submit(t, SubmitRequest{ID: "queued-job", Spec: runspec.JobSpec{Benchmark: "mri-q", Scale: 1}})

	c1, ok, _ := h.cl.Claim("w1")
	if !ok || c1.JobID != done.ID {
		t.Fatalf("claim = %+v", c1)
	}
	if err := h.cl.Complete(CompleteRequest{JobID: c1.JobID, Worker: "w1", Token: c1.Token, Cycles: 4242, Metrics: []byte(`{"ipc":1}`)}); err != nil {
		t.Fatal(err)
	}
	c2, ok, _ := h.cl.Claim("w2")
	if !ok || c2.JobID != leased.ID {
		t.Fatalf("claim = %+v", c2)
	}

	h.restart(nil) // SIGKILL + new process on the same journal

	jobs, err := h.cl.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("recovered %d jobs, want 3: %+v", len(jobs), jobs)
	}
	st, _ := h.cl.Job("done-job")
	if st.State != "done" || st.Result == nil || st.Result.Cycles != 4242 {
		t.Fatalf("done job lost: %+v", st)
	}
	st, _ = h.cl.Job("leased-job")
	if st.State != "leased" || st.Worker != "w2" {
		t.Fatalf("lease not recovered: %+v", st)
	}

	// The dead worker's lease expires on the recovered clock; its job
	// requeues. The zombie's late report is still fenced.
	h.advance(11 * time.Second)
	st, _ = h.cl.Job("leased-job")
	if st.State != "queued" {
		t.Fatalf("lease not reaped after restart: %+v", st)
	}
	err = h.cl.Complete(CompleteRequest{JobID: "leased-job", Worker: "w2", Token: c2.Token, Cycles: 1})
	if !IsStatus(err, http.StatusConflict) {
		t.Fatalf("zombie complete after restart: %v, want 409", err)
	}

	// Finish everything; each job completes exactly once.
	h.advance(20 * time.Millisecond)
	for {
		claim, ok, err := h.cl.Claim("w3")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if err := h.cl.Complete(CompleteRequest{JobID: claim.JobID, Worker: "w3", Token: claim.Token, Cycles: 100}); err != nil {
			t.Fatal(err)
		}
	}
	stats, _ := h.cl.Stats()
	if stats.Depth != 0 || stats.Counters.Completed != 2 { // post-restart counter: leased-job + queued-job
		t.Fatalf("stats after recovery = %+v", stats)
	}

	// The result cache survived the crash: an identical submission is
	// served from the done job's journaled result.
	hit := h.submit(t, SubmitRequest{ID: "cache-check", Spec: specSgemm})
	if hit.State != "done" || hit.Result == nil || !hit.Result.CacheHit || hit.Result.Cycles != 4242 {
		t.Fatalf("cache not rebuilt from journal: %+v", hit)
	}

	// A second restart after full completion recovers an all-terminal
	// queue with nothing claimable.
	h.restart(nil)
	if _, ok, _ := h.cl.Claim("w4"); ok {
		t.Fatal("claim succeeded on fully completed queue")
	}
}

func TestDrainRequeuesAndRejects(t *testing.T) {
	h := newHarness(t, nil)
	h.submit(t, SubmitRequest{ID: "running", Spec: specSgemm})
	claim, ok, _ := h.cl.Claim("w1")
	if !ok {
		t.Fatal("no claim")
	}

	// Drain returns at once, with the leased job already back in the
	// queue and journaled.
	if err := h.coord.Drain(); err != nil {
		t.Fatal(err)
	}
	st, _ := h.cl.Job("running")
	if st.State != "queued" || st.Retries != 0 || st.Attempts != 1 || st.Worker != "" {
		t.Fatalf("drained job = %+v", st)
	}
	var rec queue.Job
	if err := atomicio.ReadJSON(filepath.Join(h.dir, "jobs", "running.json"), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != queue.Queued || rec.Retries != 0 || rec.Attempts != 1 {
		t.Fatalf("journaled record = %+v, want queued with no retry used", rec)
	}

	// Draining: no new work in, no new claims out.
	_, err := h.cl.Submit(SubmitRequest{ID: "late", Spec: specSgemm})
	if !IsStatus(err, http.StatusServiceUnavailable) {
		t.Fatalf("submit during drain: %v, want 503", err)
	}
	if _, ok, _ := h.cl.Claim("w2"); ok {
		t.Fatal("claim handed out during drain")
	}

	// The old lease is fenced: its renew answers lost, its completion
	// gets 409.
	if d, err := h.cl.Renew(claim.JobID, "w1", claim.Token); err != nil || d != DirectiveLost {
		t.Fatalf("renew after drain = %q, %v; want lost", d, err)
	}
	err = h.cl.Complete(CompleteRequest{JobID: claim.JobID, Worker: "w1", Token: claim.Token, Cycles: 1})
	if !IsStatus(err, http.StatusConflict) {
		t.Fatalf("complete after drain: %v, want 409", err)
	}
	stats, _ := h.cl.Stats()
	if !stats.Draining || stats.Leased != 0 || stats.Counters.Preemptions != 1 || stats.Counters.StaleOps != 2 {
		t.Fatalf("stats = %+v", stats)
	}

	// A successor coordinator on the same journal is not draining and
	// hands the requeued job out again.
	h.restart(nil)
	claim2, ok, _ := h.cl.Claim("w3")
	if !ok || claim2.JobID != "running" || claim2.Attempt != 2 {
		t.Fatalf("claim after drained handover = %+v ok=%v", claim2, ok)
	}
}

// An idle coordinator drains at once.
func TestDrainIdle(t *testing.T) {
	h := newHarness(t, nil)
	if err := h.coord.Drain(); err != nil {
		t.Fatal(err)
	}
	if stats, err := h.cl.Stats(); err != nil || !stats.Draining {
		t.Fatalf("stats after drain = %+v, %v; want draining", stats, err)
	}
}

// captureSink records the last published fabric snapshot.
type captureSink struct {
	mu   sync.Mutex
	last obs.Snapshot
	n    int
}

func (s *captureSink) PublishFabric(snap obs.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last, s.n = snap, s.n+1
}

// Every fabric state change publishes a metrics snapshot to the sink
// (the obsrv server in production), with queue counters mirrored as
// Prometheus-typed counters and live state as gauges.
func TestFabricMetricsPublishedToSink(t *testing.T) {
	sink := &captureSink{}
	h := newHarness(t, func(o *Options) { o.Sink = sink })
	h.submit(t, SubmitRequest{ID: "a", Spec: specSgemm})
	claim, ok, _ := h.cl.Claim("w1")
	if !ok {
		t.Fatal("no claim")
	}
	sink.mu.Lock()
	depth := sink.last.Gauges["fabric.queue.depth"]
	leased := sink.last.Gauges["fabric.queue.leased"]
	sink.mu.Unlock()
	if depth != 1 || leased != 1 {
		t.Fatalf("gauges after claim: depth=%d leased=%d", depth, leased)
	}
	if err := h.cl.Complete(CompleteRequest{JobID: claim.JobID, Worker: "w1", Token: claim.Token, Cycles: 9}); err != nil {
		t.Fatal(err)
	}
	h.submit(t, SubmitRequest{ID: "b", Spec: specSgemm}) // cache hit
	sink.mu.Lock()
	defer sink.mu.Unlock()
	c := sink.last.Counters
	if c["fabric.jobs.submitted"] != 2 || c["fabric.jobs.completed"] != 2 || c["fabric.cache.hits"] != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if sink.n < 4 {
		t.Fatalf("published %d snapshots, want one per transition", sink.n)
	}
}

// waitUntil polls cond until it holds, failing the test after timeout.
func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached in %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkerEndToEnd runs the real worker against the real coordinator
// with real simulations: the job's reported cycle count must equal a
// direct sequential sim.RunSpec of the same spec — the fabric adds
// scheduling, not noise.
func TestWorkerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg, lspec, err := specSgemm.Build()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ref, err := sim.RunSpec(cfg, lspec)
	if err != nil {
		t.Fatal(err)
	}
	refWall := time.Since(start)

	h := newHarness(t, func(o *Options) { o.Now = nil }) // real clock: the worker renews on wall time
	w := &Worker{
		Client:      h.cl,
		Name:        "e2e-w1",
		SliceCycles: 20_000,
		Poll:        5 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx) //nolint:errcheck // returns nil on cancel

	resp := h.submit(t, SubmitRequest{Spec: specSgemm})
	// The fabric runs the same simulation, sliced, so
	// it takes about as long as the reference run did on this machine
	// under these build flags (-race slows both about tenfold).
	waitUntil(t, 5*refWall, func() bool {
		st, err := h.cl.Job(resp.ID)
		return err == nil && st.State == "done"
	})
	st, _ := h.cl.Job(resp.ID)
	if st.Result.Cycles != ref.Cycles {
		t.Fatalf("fabric cycles %d != sequential reference %d", st.Result.Cycles, ref.Cycles)
	}
	if st.Result.Committed != ref.Committed {
		t.Fatalf("fabric committed %d != reference %d", st.Result.Committed, ref.Committed)
	}
}

// Journal records of sgemm jobs as older coordinators wrote them. The
// first was preempted when preemption saved a checkpoint: it still
// carries the removed "checkpoint" field, naming a spool file that no
// longer exists. The second was leased when a drain that waited for
// workers to hand their jobs back timed out: it carries the removed
// "preempt_requested" flag and a live lease.
const (
	parentPreemptedRecord        = `{"id":"old","spec":"eyJiZW5jaG1hcmsiOiJzZ2VtbSIsInNjYWxlIjoxfQ==","key":"cfg0cf2943df5fa453a-specbf4cb3c4a9e8d11f","seq":1,"state":0,"attempts":1,"retries":0,"submitted":3600000000000,"token":1,"checkpoint":"/var/run/gpues/spool/old/att001-w1/ckpt-000000050000.ckpt"}`
	parentPreemptRequestedRecord = `{"id":"old","spec":"eyJiZW5jaG1hcmsiOiJzZ2VtbSIsInNjYWxlIjoxfQ==","key":"cfg0cf2943df5fa453a-specbf4cb3c4a9e8d11f","seq":1,"state":1,"attempts":1,"retries":0,"submitted":3600000000000,"worker":"w1","token":1,"lease_expiry":3610000000000,"preempt_requested":true}`
)

// TestOldJournalRecordRunsFromZero: a journal written by an older
// coordinator still loads. The job is claimed like any other (the
// leased one once the reaper expires its lease, which uses a retry),
// runs from cycle zero, and completes with the cycles of an
// uninterrupted run.
func TestOldJournalRecordRunsFromZero(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cfg, lspec, err := specSgemm.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.RunSpec(cfg, lspec)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, record, state string
		retries             int
	}{
		{"checkpoint", parentPreemptedRecord, "queued", 0},
		{"preempt_requested", parentPreemptRequestedRecord, "leased", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, nil)
			if err := os.WriteFile(filepath.Join(h.dir, "jobs", "old.json"), []byte(tc.record), 0o644); err != nil {
				t.Fatal(err)
			}
			h.restart(nil)
			if st, err := h.cl.Job("old"); err != nil || st.State != tc.state {
				t.Fatalf("old record after restart = %+v, %v; want %s", st, err, tc.state)
			}
			h.advance(11 * time.Second)      // past the old lease
			h.advance(20 * time.Millisecond) // past the retry backoff
			w := &Worker{Client: h.cl, Name: "w2", SliceCycles: 20_000, Poll: time.Millisecond}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go w.Run(ctx) //nolint:errcheck // returns nil on cancel
			waitUntil(t, time.Minute, func() bool {
				st, err := h.cl.Job("old")
				return err == nil && st.State == "done"
			})
			st, _ := h.cl.Job("old")
			if st.Result.Cycles != ref.Cycles || st.Result.Committed != ref.Committed {
				t.Fatalf("old job finished with %d cycles, %d committed; uninterrupted run %d, %d",
					st.Result.Cycles, st.Result.Committed, ref.Cycles, ref.Committed)
			}
			if st.Attempts != 2 || st.Retries != tc.retries {
				t.Fatalf("old job attempts %d retries %d, want 2 and %d", st.Attempts, st.Retries, tc.retries)
			}
		})
	}
}
