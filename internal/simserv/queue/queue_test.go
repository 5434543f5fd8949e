package queue

import (
	"errors"
	"strings"
	"testing"
)

func testCfg() Config {
	return Config{
		Cap:        4,
		Lease:      100,
		MaxRetries: 2,
		Backoff:    10,
	}
}

func submit(t *testing.T, q *Queue, id string, now int64) *Job {
	t.Helper()
	j := &Job{ID: id, Spec: []byte(`{}`)}
	if err := q.Submit(j, now); err != nil {
		t.Fatalf("submit %s: %v", id, err)
	}
	return j
}

func TestSubmitClaimFIFO(t *testing.T) {
	q := New(testCfg())
	submit(t, q, "b", 1)
	submit(t, q, "a", 2) // later submit, lexically earlier: FIFO must win
	submit(t, q, "c", 3)

	for _, want := range []string{"b", "a", "c"} {
		j, tok, ok := q.Claim("w1", 10)
		if !ok || j.ID != want {
			t.Fatalf("claim = %v, want %s", j, want)
		}
		if tok == 0 || j.Token != tok || j.State != Leased || j.Worker != "w1" {
			t.Fatalf("lease not installed: %+v", j)
		}
		if j.LeaseExpiry != 110 {
			t.Fatalf("lease expiry = %d, want 110", j.LeaseExpiry)
		}
	}
	if _, _, ok := q.Claim("w1", 10); ok {
		t.Fatal("claim on empty queue succeeded")
	}
}

func TestSubmitCapAndDuplicates(t *testing.T) {
	q := New(testCfg())
	for _, id := range []string{"a", "b", "c", "d"} {
		submit(t, q, id, 1)
	}
	if err := q.Submit(&Job{ID: "e"}, 1); !errors.Is(err, ErrFull) {
		t.Fatalf("over-cap submit: %v, want ErrFull", err)
	}
	if err := q.Submit(&Job{ID: "a"}, 1); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate submit: %v, want ErrDuplicate", err)
	}
	if err := q.Submit(&Job{}, 1); err == nil {
		t.Fatal("empty job id accepted")
	}
	if c := q.Counters(); c.RejectedFull != 1 || c.Submitted != 4 {
		t.Fatalf("counters = %+v", c)
	}
	// Completion frees a slot.
	j, tok, _ := q.Claim("w1", 2)
	if _, err := q.Complete(j.ID, "w1", tok, Result{Cycles: 7}, 3); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(&Job{ID: "e"}, 4); err != nil {
		t.Fatalf("submit after completion: %v", err)
	}
	if q.Depth() != 4 {
		t.Fatalf("depth = %d, want 4", q.Depth())
	}
}

func TestCompleteExactlyOnce(t *testing.T) {
	q := New(testCfg())
	submit(t, q, "a", 1)
	j, tok, _ := q.Claim("w1", 2)

	if _, err := q.Complete("a", "w2", tok, Result{}, 3); !errors.Is(err, ErrStale) {
		t.Fatalf("wrong worker: %v, want ErrStale", err)
	}
	if _, err := q.Complete("a", "w1", tok+1, Result{}, 3); !errors.Is(err, ErrStale) {
		t.Fatalf("wrong token: %v, want ErrStale", err)
	}
	if _, err := q.Complete("nope", "w1", tok, Result{}, 3); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown job: %v, want ErrUnknown", err)
	}

	done, err := q.Complete("a", "w1", tok, Result{Cycles: 101471, Committed: 9}, 3)
	if err != nil || len(done) != 1 {
		t.Fatalf("complete: %v, %v", done, err)
	}
	if j.State != Done || j.Result.Cycles != 101471 || j.Result.Worker != "w1" {
		t.Fatalf("job after complete: %+v res %+v", j, j.Result)
	}
	// Replay of the same report must be rejected, not double-counted.
	if _, err := q.Complete("a", "w1", tok, Result{}, 4); !errors.Is(err, ErrStale) {
		t.Fatalf("duplicate complete: %v, want ErrStale", err)
	}
	c := q.Counters()
	if c.Completed != 1 || c.StaleOps != 3 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestLeaseExpiryFencesOldWorker(t *testing.T) {
	q := New(testCfg())
	submit(t, q, "a", 1)
	_, tok1, _ := q.Claim("w1", 2)

	// Nothing expires before the deadline.
	if exp := q.ExpireLeases(101); len(exp) != 0 {
		t.Fatalf("early expiry: %v", exp)
	}
	exp := q.ExpireLeases(102)
	if len(exp) != 1 || exp[0].ID != "a" || exp[0].State != Queued {
		t.Fatalf("expiry = %+v", exp)
	}
	if !strings.Contains(exp[0].LastError, "lease expired on worker w1") {
		t.Fatalf("expiry recorded no cause: %q", exp[0].LastError)
	}

	// w1 is still running and reports late: fenced.
	if _, err := q.Complete("a", "w1", tok1, Result{}, 150); !errors.Is(err, ErrStale) {
		t.Fatalf("late complete: %v, want ErrStale", err)
	}
	if err := q.Renew("a", "w1", tok1, 150); !errors.Is(err, ErrStale) {
		t.Fatalf("late renew: %v, want ErrStale", err)
	}

	// The job is claimable again after its backoff, by a new token.
	j := exp[0]
	if j.NotBefore <= 102 {
		t.Fatalf("no backoff applied: %+v", j)
	}
	j2, tok2, ok := q.Claim("w2", j.NotBefore)
	if !ok || j2.ID != "a" || tok2 == tok1 {
		t.Fatalf("reclaim = %+v tok %d", j2, tok2)
	}
	if _, err := q.Complete("a", "w2", tok2, Result{Cycles: 5}, 200); err != nil {
		t.Fatal(err)
	}
	c := q.Counters()
	if c.LeaseExpiries != 1 || c.Retries != 1 || c.Completed != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestFailBackoffAndDeadLetter(t *testing.T) {
	cfg := testCfg()
	q := New(cfg)
	submit(t, q, "a", 0)

	var delays []int64
	now := int64(0)
	for i := 0; ; i++ {
		j, tok, ok := q.Claim("w1", now)
		if !ok {
			t.Fatalf("claim %d failed at now=%d", i, now)
		}
		retried, err := q.Fail(j.ID, "w1", tok, "watchdog stall", "SM3 warp 2 @pc 0x40", now)
		if err != nil {
			t.Fatal(err)
		}
		if !retried {
			if i != cfg.MaxRetries {
				t.Fatalf("dead-lettered after %d failures, want %d", i+1, cfg.MaxRetries+1)
			}
			break
		}
		delays = append(delays, j.NotBefore-now)
		now = j.NotBefore
	}

	j, _ := q.Get("a")
	if j.State != Dead || j.StallReport != "SM3 warp 2 @pc 0x40" || j.LastError != "watchdog stall" {
		t.Fatalf("dead letter = %+v", j)
	}
	if _, _, ok := q.Claim("w1", now+1000); ok {
		t.Fatal("dead job claimed")
	}
	// Exponential base with bounded jitter: delay i in [base<<i, 1.5*(base<<i)).
	for i, d := range delays {
		base := cfg.Backoff << min(i, 3)
		if d < base || d >= base+base/2 {
			t.Errorf("delay %d = %d, want in [%d, %d)", i, d, base, base+base/2)
		}
	}
	c := q.Counters()
	if c.DeadLetters != 1 || c.Failures != int64(cfg.MaxRetries)+1 {
		t.Fatalf("counters = %+v", c)
	}
	if q.Depth() != 0 {
		t.Fatalf("dead job still resident: depth=%d", q.Depth())
	}
}

func TestBackoffDeterministicAcrossQueues(t *testing.T) {
	run := func() []int64 {
		q := New(testCfg())
		submit(t, q, "job-7", 0)
		var delays []int64
		now := int64(0)
		for {
			j, tok, ok := q.Claim("w", now)
			if !ok {
				break
			}
			retried, _ := q.Fail(j.ID, "w", tok, "x", "", now)
			if !retried {
				break
			}
			delays = append(delays, j.NotBefore-now)
			now = j.NotBefore
		}
		return delays
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("delay runs differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same inputs diverged: %v vs %v", a, b)
		}
	}
}

func TestCoalescingSingleflight(t *testing.T) {
	q := New(Config{Cap: 10, Lease: 100, MaxRetries: 1})
	p := &Job{ID: "p", Key: "fp:abc"}
	if err := q.Submit(p, 1); err != nil {
		t.Fatal(err)
	}
	f1 := &Job{ID: "f1", Key: "fp:abc"}
	f2 := &Job{ID: "f2", Key: "fp:abc"}
	other := &Job{ID: "o", Key: "fp:xyz"}
	for _, j := range []*Job{f1, f2, other} {
		if err := q.Submit(j, 2); err != nil {
			t.Fatal(err)
		}
	}
	if f1.CoalescedInto != "p" || f2.CoalescedInto != "p" || other.CoalescedInto != "" {
		t.Fatalf("coalescing: f1=%q f2=%q o=%q", f1.CoalescedInto, f2.CoalescedInto, other.CoalescedInto)
	}

	// Only p and o are claimable: one simulation per distinct key.
	j1, tok, _ := q.Claim("w1", 3)
	j2, _, _ := q.Claim("w2", 3)
	if j1.ID != "p" || j2.ID != "o" {
		t.Fatalf("claims = %v, %v", j1.ID, j2.ID)
	}
	if _, _, ok := q.Claim("w3", 3); ok {
		t.Fatal("follower was claimed")
	}

	done, err := q.Complete("p", "w1", tok, Result{Cycles: 9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 3 {
		t.Fatalf("completed %d jobs, want primary+2 followers", len(done))
	}
	if done[0].ID != "p" || done[0].Result.CacheHit {
		t.Fatalf("primary result: %+v", done[0].Result)
	}
	for _, f := range done[1:] {
		if f.State != Done || !f.Result.CacheHit || f.Result.Cycles != 9 {
			t.Fatalf("follower %s result: %+v", f.ID, f.Result)
		}
	}
	if c := q.Counters(); c.Coalesced != 2 || c.Completed != 3 {
		t.Fatalf("counters = %+v", c)
	}

	// A fresh submission with the same key gets no resident primary now.
	late := &Job{ID: "late", Key: "fp:abc"}
	if err := q.Submit(late, 5); err != nil || late.CoalescedInto != "" {
		t.Fatalf("late submit coalesced onto finished job: %+v, %v", late, err)
	}
}

func TestCoalescedFollowersDieWithPrimary(t *testing.T) {
	q := New(Config{Cap: 10, Lease: 100, MaxRetries: 0})
	submitKey := func(id string) *Job {
		j := &Job{ID: id, Key: "fp:k"}
		if err := q.Submit(j, 1); err != nil {
			t.Fatal(err)
		}
		return j
	}
	p, f := submitKey("p"), submitKey("f")
	_, tok, _ := q.Claim("w1", 2)
	if retried, err := q.Fail("p", "w1", tok, "boom", "", 2); err != nil || retried {
		t.Fatalf("fail: retried=%v err=%v", retried, err)
	}
	if p.State != Dead || f.State != Dead {
		t.Fatalf("states: p=%v f=%v", p.State, f.State)
	}
	if f.LastError == "" {
		t.Fatal("follower dead-letter carries no cause")
	}
	if c := q.Counters(); c.DeadLetters != 2 {
		t.Fatalf("counters = %+v", c)
	}
	if q.Depth() != 0 {
		t.Fatalf("depth = %d", q.Depth())
	}
}

func TestSubmitServesDoneKey(t *testing.T) {
	q := New(testCfg())
	p := &Job{ID: "p", Key: "fp:k"}
	if err := q.Submit(p, 1); err != nil {
		t.Fatal(err)
	}
	_, tok, _ := q.Claim("w1", 2)
	res := Result{Cycles: 33, Committed: 7, Metrics: []byte(`{"ipc":2}`)}
	if _, err := q.Complete("p", "w1", tok, res, 3); err != nil {
		t.Fatal(err)
	}
	// Fill every slot: serving a done key needs none, so the cap check
	// must come after it.
	for _, id := range []string{"a", "b", "c", "d"} {
		submit(t, q, id, 4)
	}
	before := q.Counters()
	hit := &Job{ID: "hit", Key: "fp:k"}
	if err := q.Submit(hit, 5); err != nil {
		t.Fatalf("submit of a done key at a full queue: %v", err)
	}
	if hit.State != Done || hit.Result == nil || hit.CoalescedInto != "" {
		t.Fatalf("hit = %+v", hit)
	}
	r := hit.Result
	if !r.CacheHit || r.Cycles != 33 || r.Committed != 7 || r.Worker != "w1" || string(r.Metrics) != `{"ipc":2}` {
		t.Fatalf("served result = %+v, want p's result verbatim marked as a cache hit", r)
	}
	if p.Result.CacheHit {
		t.Fatal("serving marked the original result as a cache hit")
	}
	after := q.Counters()
	if after.Completed != before.Completed+1 || after.Submitted != before.Submitted+1 || after.RejectedFull != before.RejectedFull {
		t.Fatalf("counters %+v -> %+v", before, after)
	}
	if q.Depth() != 4 {
		t.Fatalf("depth = %d, want 4: a served job is never resident", q.Depth())
	}
	for i := 0; i < 5; i++ {
		if j, _, ok := q.Claim("w2", 6); ok && j.ID == "hit" {
			t.Fatal("served job was claimed")
		}
	}

	// A dead primary simulated nothing: its key is not served.
	q = New(Config{Cap: 10, Lease: 100, MaxRetries: 0})
	if err := q.Submit(&Job{ID: "x", Key: "fp:d"}, 1); err != nil {
		t.Fatal(err)
	}
	_, tok, _ = q.Claim("w1", 2)
	if _, err := q.Fail("x", "w1", tok, "boom", "", 3); err != nil {
		t.Fatal(err)
	}
	y := &Job{ID: "y", Key: "fp:d"}
	if err := q.Submit(y, 4); err != nil {
		t.Fatal(err)
	}
	if y.State != Queued || y.Result != nil {
		t.Fatalf("dead primary's key served: %+v", y)
	}
}

// RequeueLeased (a drain) returns every leased job to the queue at
// once: no retry used, no backoff, the old token fenced, and the next
// claim runs the job again as a new attempt.
func TestPreemptAndResume(t *testing.T) {
	q := New(testCfg())
	submit(t, q, "a", 1)
	submit(t, q, "b", 2)
	submit(t, q, "c", 3)
	ja, tok, _ := q.Claim("w1", 4)
	q.Claim("w2", 5)
	jc, _, _ := q.Claim("w3", 6)
	if _, err := q.Complete("c", "w3", jc.Token, Result{Cycles: 1}, 7); err != nil {
		t.Fatal(err)
	}
	if err := q.Renew("a", "w1", tok, 10); err != nil || ja.LeaseExpiry != 110 {
		t.Fatalf("renew: %v, lease expiry %d", err, ja.LeaseExpiry)
	}

	got := q.RequeueLeased()
	if len(got) != 2 || got[0].ID != "a" || got[1].ID != "b" {
		t.Fatalf("requeued = %+v, want a and b", got)
	}
	for _, j := range got {
		if j.State != Queued || j.Worker != "" || j.LeaseExpiry != 0 || j.NotBefore != 0 {
			t.Fatalf("after requeue: %+v", j)
		}
		// No retry consumed: the attempt was cut short, not failed.
		if j.Retries != 0 || j.Attempts != 1 {
			t.Fatalf("requeue changed the retry or attempt count: %+v", j)
		}
	}
	if jc.State != Done || q.Depth() != 2 || q.Leased() != 0 {
		t.Fatalf("done job %+v, depth %d, leased %d", jc, q.Depth(), q.Leased())
	}
	if len(q.RequeueLeased()) != 0 {
		t.Fatal("second requeue found leases")
	}

	// The old lease is fenced.
	if err := q.Renew("a", "w1", tok, 11); !errors.Is(err, ErrStale) {
		t.Fatalf("renew on the old token: %v, want ErrStale", err)
	}
	if _, err := q.Complete("a", "w1", tok, Result{}, 11); !errors.Is(err, ErrStale) {
		t.Fatalf("complete on the old token: %v, want ErrStale", err)
	}

	// Requeued with no backoff: immediately claimable under a new token.
	j2, tok2, ok := q.Claim("w2", 12)
	if !ok || j2.ID != "a" || tok2 == tok || j2.Attempts != 2 || j2.Retries != 0 {
		t.Fatalf("claim after requeue: %+v tok=%d", j2, tok2)
	}
	if c := q.Counters(); c.Preemptions != 2 || c.StaleOps != 2 || c.Retries != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestLoadReorderRoundTrip(t *testing.T) {
	cfg := testCfg()
	q := New(cfg)
	submit(t, q, "a", 1)
	submit(t, q, "b", 2)
	submit(t, q, "c", 3)
	ja, tokA, _ := q.Claim("w1", 4)
	if _, err := q.Complete("a", "w1", tokA, Result{Cycles: 1}, 5); err != nil {
		t.Fatal(err)
	}
	_ = ja

	// Rebuild a second queue from the first one's records, shuffled.
	q2 := New(cfg)
	jobs := q.Jobs()
	for i := len(jobs) - 1; i >= 0; i-- {
		cp := *jobs[i]
		q2.Load(&cp)
	}
	q2.Reorder()

	if q2.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", q2.Depth())
	}
	got, _ := q2.Get("a")
	if got.State != Done || got.Result.Cycles != 1 {
		t.Fatalf("done job lost: %+v", got)
	}
	// Claim order resumes FIFO; new tokens never collide with old ones.
	j, tok, ok := q2.Claim("w2", 10)
	if !ok || j.ID != "b" {
		t.Fatalf("claim after load = %+v", j)
	}
	if tok <= tokA {
		t.Fatalf("token %d not past loaded high-water %d", tok, tokA)
	}
	// A new submission's Seq continues past the loaded ones.
	submit(t, q2, "d", 11)
	d, _ := q2.Get("d")
	if d.Seq <= 3 {
		t.Fatalf("seq not resumed: %+v", d)
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{Queued: "queued", Leased: "leased", Done: "done", Dead: "dead", State(9): "State(9)"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}
