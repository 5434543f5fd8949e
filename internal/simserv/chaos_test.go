package simserv

import (
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpues/internal/runspec"
	"gpues/internal/sim"
	"gpues/internal/simserv/queue"
)

// The fabric chaos campaign: a seeded schedule of worker kills, lease
// expiries, duplicate (zombie) completion attempts, and one drain and
// restart of the coordinator at a seeded round (every leased job goes
// back to the queue, the next claimant runs it from cycle zero, and
// its old worker is fenced), driven against a coordinator under a fake
// clock with real simulations underneath. The acceptance
// bar: every job completes exactly once, every completed job reports
// the bit-identical cycle count of an uninterrupted sequential
// reference run, the doomed job dead-letters with its stall report,
// and the whole campaign is deterministic — the same seed replays to
// the same counters.

// campaignRNG is a tiny deterministic LCG; the campaign must not
// depend on the global math/rand state.
type campaignRNG struct{ s uint64 }

func (r *campaignRNG) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 33
}

func (r *campaignRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// chaosWorker is one simulated fabric worker: at most one claim with
// its in-memory simulator. A "kill" drops the simulator but remembers
// the lease so the zombie can attempt a stale completion later.
type chaosWorker struct {
	name  string
	claim *ClaimResponse
	sim   *sim.Simulator
}

type zombie struct {
	worker string
	claim  ClaimResponse
	// rounds until the zombie tries its stale (and wrong) completion.
	fuse int
}

type campaignOutcome struct {
	rounds    int
	counters  queue.Counters
	staleHits int // zombie completions fenced with 409
	results   map[string]queue.Result
}

// plus returns the field-wise sum of two counter sets: a restarted
// coordinator counts from zero.
func plus(a, b queue.Counters) queue.Counters {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(va.Field(i).Int() + vb.Field(i).Int())
	}
	return a
}

func runCampaign(t *testing.T, seed uint64) campaignOutcome {
	t.Helper()
	opts := func(o *Options) {
		o.Queue.Lease = int64(3 * time.Second)
		o.Queue.MaxRetries = 4
		o.Queue.Backoff = int64(time.Millisecond)
	}
	h := newHarness(t, opts)
	rng := &campaignRNG{s: seed}
	drainAt := 2 + rng.intn(6)
	var drained queue.Counters // the first coordinator's counts

	specA := runspec.JobSpec{Benchmark: "sgemm", Scale: 1}
	specB := runspec.JobSpec{Benchmark: "sgemm", Scale: 1, Scheme: "replay-queue"}
	specC := runspec.JobSpec{Benchmark: "mri-q", Scale: 1}
	// Doomed: MaxCycles far below completion stalls every attempt.
	specStall := runspec.JobSpec{Benchmark: "sgemm", Scale: 1, MaxCycles: 2000}

	submissions := []struct {
		id   string
		spec runspec.JobSpec
	}{
		{"job-a1", specA}, {"job-b1", specB}, {"job-c1", specC},
		{"job-a2", specA}, // coalesces onto job-a1 or hits its cache
		{"job-b2", specB},
		{"job-doom", specStall},
	}
	for _, s := range submissions {
		h.submit(t, SubmitRequest{ID: s.id, Spec: s.spec})
	}

	workers := []*chaosWorker{{name: "cw1"}, {name: "cw2"}, {name: "cw3"}}
	var zombies []*zombie
	staleHits := 0

	const slice = 25_000
	allTerminal := func() bool {
		jobs, err := h.cl.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if j.State != "done" && j.State != "dead" {
				return false
			}
		}
		return true
	}

	round := 0
	for ; round < 400 && !allTerminal(); round++ {
		if round == drainAt {
			// SIGTERM: the coordinator requeues every leased job and
			// stops; a successor takes the journal over. The workers
			// keep their claims and find out at their next renewal.
			if err := h.coord.Drain(); err != nil {
				t.Fatal(err)
			}
			stats, err := h.cl.Stats()
			if err != nil {
				t.Fatal(err)
			}
			drained = stats.Counters
			h.restart(opts)
		}
		for _, w := range workers {
			if w.claim == nil {
				claim, ok, err := h.cl.Claim(w.name)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
				cfg, lspec, err := claim.Spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				s, err := sim.New(cfg, lspec)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Start(); err != nil {
					t.Fatal(err)
				}
				w.claim, w.sim = &claim, s
				continue
			}

			switch roll := rng.intn(100); {
			case roll < 70: // make progress for one slice
				d, err := h.cl.Renew(w.claim.JobID, w.name, w.claim.Token)
				if err != nil {
					t.Fatal(err)
				}
				if d == DirectiveLost {
					// The reaper reassigned the job while this worker
					// dawdled; drop the run.
					w.claim, w.sim = nil, nil
					continue
				}
				reached, err := w.sim.StepTo(w.sim.Cycle() + slice)
				if err != nil {
					req := FailRequest{JobID: w.claim.JobID, Worker: w.name, Token: w.claim.Token, Error: err.Error()}
					var stall *sim.StallError
					if errors.As(err, &stall) {
						req.Error = "stall: " + stall.Report.Reason
						req.Stall = stall.Report.String()
					}
					if _, ferr := h.cl.Fail(req); ferr != nil && !IsStatus(ferr, http.StatusConflict) {
						t.Fatalf("fail report: %v", ferr)
					}
					w.claim, w.sim = nil, nil
					continue
				}
				if !reached {
					res, err := w.sim.Run()
					if err != nil {
						t.Fatalf("finalize %s: %v", w.claim.JobID, err)
					}
					err = h.cl.Complete(CompleteRequest{
						JobID: w.claim.JobID, Worker: w.name, Token: w.claim.Token,
						Cycles: res.Cycles, Committed: res.Committed,
					})
					if err != nil && !IsStatus(err, http.StatusConflict) {
						t.Fatalf("complete: %v", err)
					}
					w.claim, w.sim = nil, nil
				}
			case roll < 85: // SIGKILL: drop everything, leave a zombie
				zombies = append(zombies, &zombie{worker: w.name, claim: *w.claim, fuse: 2 + rng.intn(3)})
				w.claim, w.sim = nil, nil
			default: // dawdle: no renew, the lease ages toward expiry
			}
		}

		// Zombies report back with stale tokens and garbage cycles; the
		// fencing token must reject every one, or the bit-exactness
		// assertion below would fail. A zombie only fires once its
		// lease has actually been superseded (reaped or reclaimed) — a
		// kill is invisible to the fabric until the lease lapses, and a
		// genuinely dead process never reports at all.
		live := zombies[:0]
		for _, z := range zombies {
			z.fuse--
			if z.fuse > 0 {
				live = append(live, z)
				continue
			}
			st, err := h.cl.Job(z.claim.JobID)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == "leased" && st.Worker == z.worker && st.Attempts == z.claim.Attempt {
				// The abandoned lease is still live; wait for the reaper.
				z.fuse = 1
				live = append(live, z)
				continue
			}
			err = h.cl.Complete(CompleteRequest{
				JobID: z.claim.JobID, Worker: z.worker, Token: z.claim.Token, Cycles: 1,
			})
			if err == nil {
				t.Fatalf("zombie completion of %s with stale token was accepted", z.claim.JobID)
			}
			if IsStatus(err, http.StatusConflict) {
				staleHits++
			}
		}
		zombies = live

		h.advance(time.Duration(500+rng.intn(1500)) * time.Millisecond)
	}

	if !allTerminal() {
		t.Fatalf("campaign did not converge in %d rounds", round)
	}
	jobs, err := h.cl.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	out := campaignOutcome{rounds: round, staleHits: staleHits, results: map[string]queue.Result{}}
	for _, j := range jobs {
		if j.Result != nil {
			out.results[j.ID] = *j.Result
		}
	}
	stats, err := h.cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	out.counters = plus(drained, stats.Counters)

	// Verdicts. The doomed job dead-letters carrying its stall report;
	// everything else completes with bit-identical reference cycles.
	refs := map[string]runspec.JobSpec{
		"job-a1": specA, "job-a2": specA,
		"job-b1": specB, "job-b2": specB,
		"job-c1": specC,
	}
	refCycles := map[string]int64{}
	for _, j := range jobs {
		switch j.ID {
		case "job-doom":
			if j.State != "dead" {
				t.Fatalf("doomed job = %+v, want dead", j)
			}
			if !strings.Contains(j.StallReport, "max-cycles") {
				t.Fatalf("dead letter without max-cycles stall report: %q", j.StallReport)
			}
			if j.Retries != 5 { // MaxRetries 4 + the burying failure
				t.Fatalf("doomed retries = %d, want 5", j.Retries)
			}
		default:
			spec := refs[j.ID]
			key, _ := spec.Key()
			if _, ok := refCycles[key]; !ok {
				cfg, lspec, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				ref, err := sim.RunSpec(cfg, lspec)
				if err != nil {
					t.Fatal(err)
				}
				refCycles[key] = ref.Cycles
			}
			if j.State != "done" || j.Result == nil {
				t.Fatalf("job %s = %+v, want done", j.ID, j)
			}
			if j.Result.Cycles != refCycles[key] {
				t.Fatalf("job %s: fabric cycles %d != sequential reference %d (exactly-once or determinism broken)",
					j.ID, j.Result.Cycles, refCycles[key])
			}
		}
	}
	// Exactly once: completions count every done job (primaries,
	// coalesced followers and cache hits alike), and each job holds
	// exactly one result.
	if out.counters.Completed != 5 {
		t.Fatalf("completed = %d, want 5: %+v", out.counters.Completed, out.counters)
	}
	if out.counters.DeadLetters != 1 {
		t.Fatalf("dead letters = %d, want 1 (job-doom)", out.counters.DeadLetters)
	}
	return out
}

func TestFabricChaosCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many simulations")
	}
	out := runCampaign(t, 1234)
	// The seeded schedule must actually have exercised the failure
	// paths, or the campaign proves nothing.
	if out.counters.LeaseExpiries == 0 {
		t.Error("campaign produced no lease expiries")
	}
	if out.counters.Preemptions == 0 {
		t.Errorf("campaign produced no preemption: %+v", out.counters)
	}
	if out.staleHits == 0 && out.counters.StaleOps == 0 {
		t.Error("campaign produced no fenced stale operations")
	}
	if out.counters.Retries == 0 {
		t.Error("campaign produced no retries")
	}
	t.Logf("campaign: %d rounds, counters %+v, %d zombie completions fenced",
		out.rounds, out.counters, out.staleHits)
}

// The campaign is a deterministic function of its seed: replaying it
// must land on identical counters and identical per-job results.
func TestFabricChaosCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many simulations")
	}
	a := runCampaign(t, 99)
	b := runCampaign(t, 99)
	if a.counters != b.counters {
		t.Fatalf("same seed, different counters:\n%+v\n%+v", a.counters, b.counters)
	}
	if a.rounds != b.rounds || a.staleHits != b.staleHits {
		t.Fatalf("same seed, different schedule: rounds %d/%d stale %d/%d",
			a.rounds, b.rounds, a.staleHits, b.staleHits)
	}
	for id, ra := range a.results {
		if rb, ok := b.results[id]; !ok || ra.Cycles != rb.Cycles || ra.Worker != rb.Worker {
			t.Fatalf("job %s diverged between replays: %+v vs %+v", id, ra, b.results[id])
		}
	}
}
