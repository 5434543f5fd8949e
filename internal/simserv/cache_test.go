package simserv

import (
	"fmt"
	"sync"
	"testing"

	"gpues/internal/runspec"
)

// The result cache is keyed on the simulator's config/spec
// fingerprints, so two spellings of the same simulation share an
// entry and any config change misses.

func TestSpecKeyNormalizesSpelling(t *testing.T) {
	a, err := runspec.JobSpec{Benchmark: "sgemm"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	b, err := runspec.JobSpec{Benchmark: "sgemm", Scale: 1, Scheme: "baseline", Link: "nvlink", Placement: "resident"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("defaulted and explicit spellings differ: %s vs %s", a, b)
	}
	for _, mut := range []runspec.JobSpec{
		{Benchmark: "sgemm", Scale: 2},
		{Benchmark: "sgemm", Scheme: "replay-queue"},
		{Benchmark: "sgemm", Link: "pcie"},
		{Benchmark: "sgemm", Placement: "paging"},
		{Benchmark: "sgemm", Switching: true, Scheme: "replay-queue"},
		{Benchmark: "mri-q"},
	} {
		k, err := mut.Key()
		if err != nil {
			t.Fatalf("%+v: %v", mut, err)
		}
		if k == a {
			t.Fatalf("config change %+v did not change the key", mut)
		}
	}
}

func TestCacheHitServesOriginalMetrics(t *testing.T) {
	h := newHarness(t, nil)
	h.submit(t, SubmitRequest{ID: "first", Spec: specSgemm})
	claim, ok, _ := h.cl.Claim("w1")
	if !ok {
		t.Fatal("no claim")
	}
	metrics := []byte(`{"cycles":101471,"committed":524288,"link_util":0.42}`)
	if err := h.cl.Complete(CompleteRequest{
		JobID: claim.JobID, Worker: "w1", Token: claim.Token,
		Cycles: 101471, Committed: 524288, Metrics: metrics,
	}); err != nil {
		t.Fatal(err)
	}

	// Identical spec, different spelling: completes at admission with
	// the original run's result and metrics, no worker involved.
	resp := h.submit(t, SubmitRequest{ID: "second", Spec: runspec.JobSpec{Benchmark: "sgemm", Scale: 1, Scheme: "baseline"}})
	if resp.State != "done" || resp.Result == nil {
		t.Fatalf("cache hit = %+v", resp)
	}
	if !resp.Result.CacheHit || resp.Result.Cycles != 101471 || resp.Result.Worker != "w1" {
		t.Fatalf("cached result = %+v", resp.Result)
	}
	if string(resp.Result.Metrics) != string(metrics) {
		t.Fatalf("cached metrics = %s, want original %s", resp.Result.Metrics, metrics)
	}
	if _, ok, _ := h.cl.Claim("w2"); ok {
		t.Fatal("cache-served job reached a worker")
	}

	// A config change invalidates: different scheme misses the cache
	// and queues for real execution.
	miss := h.submit(t, SubmitRequest{ID: "third", Spec: runspec.JobSpec{Benchmark: "sgemm", Scheme: "replay-queue"}})
	if miss.State != "queued" {
		t.Fatalf("changed config served from cache: %+v", miss)
	}

	stats, _ := h.cl.Stats()
	if stats.CacheHits != 1 || stats.CacheMisses != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	snap := h.coord.MetricsSnapshot()
	if snap.Counters["fabric.cache.hits"] != 1 || snap.Counters["fabric.cache.misses"] != 2 {
		t.Fatalf("metrics = %+v", snap.Counters)
	}
}

// Concurrent identical submissions while nothing is cached yet must
// collapse onto one simulation (singleflight): one claim reaches a
// worker, every submission completes with that run's result.
func TestSingleflightCollapsesConcurrentSubmissions(t *testing.T) {
	h := newHarness(t, nil)
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = h.cl.Submit(SubmitRequest{ID: fmt.Sprintf("dup-%d", i), Spec: specSgemm})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	// Exactly one of the eight is claimable.
	claim, ok, _ := h.cl.Claim("w1")
	if !ok {
		t.Fatal("no claim")
	}
	if _, ok, _ := h.cl.Claim("w2"); ok {
		t.Fatal("second claim for identical submissions: singleflight broken")
	}
	if err := h.cl.Complete(CompleteRequest{
		JobID: claim.JobID, Worker: "w1", Token: claim.Token,
		Cycles: 4242, Metrics: []byte(`{"cycles":4242}`),
	}); err != nil {
		t.Fatal(err)
	}

	// Every submission is done with the one run's cycles; followers
	// and later cache hits are marked as such.
	primaries := 0
	for i := 0; i < n; i++ {
		st, err := h.cl.Job(fmt.Sprintf("dup-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" || st.Result == nil || st.Result.Cycles != 4242 {
			t.Fatalf("dup-%d = %+v", i, st)
		}
		if !st.Result.CacheHit {
			primaries++
		}
	}
	if primaries != 1 {
		t.Fatalf("%d primary results, want exactly 1 simulation", primaries)
	}
	stats, _ := h.cl.Stats()
	if stats.Counters.Completed != n {
		t.Fatalf("completed = %d, want %d", stats.Counters.Completed, n)
	}
	// One more identical submission now hits the cache outright.
	late := h.submit(t, SubmitRequest{ID: "late", Spec: specSgemm})
	if late.State != "done" || !late.Result.CacheHit {
		t.Fatalf("late = %+v", late)
	}
}
