package simserv

import (
	"os"
	"path/filepath"
	"testing"

	"gpues/internal/simserv/queue"
)

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jr, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*queue.Job{
		{ID: "a", Seq: 2, State: queue.Queued, Spec: []byte(`{"benchmark":"sgemm"}`)},
		{ID: "b", Seq: 1, State: queue.Done, Result: &queue.Result{Cycles: 42}},
	}
	for _, j := range jobs {
		if err := jr.Record(j); err != nil {
			t.Fatal(err)
		}
	}
	got, skipped, err := jr.Load()
	if err != nil || len(skipped) != 0 {
		t.Fatalf("load: %v skipped %v", err, skipped)
	}
	if len(got) != 2 || got[0].ID != "b" || got[1].ID != "a" {
		t.Fatalf("loaded (Seq order) = %+v", got)
	}
	if got[0].Result == nil || got[0].Result.Cycles != 42 {
		t.Fatalf("result lost: %+v", got[0])
	}
}

func TestJournalSkipsTornAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	jr, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Record(&queue.Job{ID: "good", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// A .tmp orphan (kill mid-write) and a corrupt record must both be
	// skipped without failing recovery.
	if err := os.WriteFile(filepath.Join(dir, "jobs", "torn.json.tmp"), []byte(`{"id":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "bad.json"), []byte(`{"id":`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A record whose ID does not match its filename is corrupt too.
	if err := os.WriteFile(filepath.Join(dir, "jobs", "mismatch.json"), []byte(`{"id":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := jr.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "good" {
		t.Fatalf("loaded = %+v", got)
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped = %v, want bad.json and mismatch.json", skipped)
	}
}

func TestOpenJournalValidation(t *testing.T) {
	if _, err := OpenJournal(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// FuzzJournalLoad: no record bytes panic Load, and a record either
// loads under its own name (ID+".json") or lands in skipped.
func FuzzJournalLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		jr, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		const name = "fuzz.json"
		if err := os.WriteFile(filepath.Join(dir, "jobs", name), b, 0o644); err != nil {
			t.Fatal(err)
		}
		jobs, skipped, err := jr.Load()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case len(jobs) == 1 && len(skipped) == 0:
			if jobs[0].ID+".json" != name {
				t.Fatalf("loaded record %q from %s", jobs[0].ID, name)
			}
		case len(jobs) == 0 && len(skipped) == 1:
			if skipped[0] != name {
				t.Fatalf("skipped %q, want %s", skipped[0], name)
			}
		default:
			t.Fatalf("one record gave %d jobs and skipped %v", len(jobs), skipped)
		}
	})
}
