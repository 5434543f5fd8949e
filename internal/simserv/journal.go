package simserv

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gpues/internal/atomicio"
	"gpues/internal/simserv/queue"
)

// Journal persists the queue crash-only: every job transition rewrites
// that job's record with an atomic tmp+rename, so the on-disk state is
// always a consistent set of whole records — a SIGKILLed coordinator
// restarts into exactly the queue it last acknowledged. There is no
// compaction and no shared file to corrupt; one job, one file.
type Journal struct {
	dir string
}

// OpenJournal creates (or reopens) a journal rooted at dir.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("simserv: empty journal dir")
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	return &Journal{dir: dir}, nil
}

// SpoolDir returns the shared checkpoint spool for preempted jobs.
func (jr *Journal) SpoolDir() string { return filepath.Join(jr.dir, "spool") }

func (jr *Journal) jobPath(id string) string {
	return filepath.Join(jr.dir, "jobs", id+".json")
}

// Record persists the job's current state. The write must land before
// the coordinator acknowledges the transition to anyone: journal
// first, reply second is what makes a crash lose nothing.
func (jr *Journal) Record(j *queue.Job) error {
	return atomicio.WriteJSON(jr.jobPath(j.ID), j)
}

// Load reads every journaled job. Torn writes cannot exist (the
// atomic-write idiom never exposes a partial destination), but a
// record corrupted by other means is skipped with its name in skipped
// rather than poisoning the whole recovery.
func (jr *Journal) Load() (jobs []*queue.Job, skipped []string, err error) {
	entries, err := os.ReadDir(filepath.Join(jr.dir, "jobs"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || atomicio.IsTmp(name) || !strings.HasSuffix(name, ".json") {
			continue
		}
		var j queue.Job
		if err := atomicio.ReadJSON(filepath.Join(jr.dir, "jobs", name), &j); err != nil {
			skipped = append(skipped, name)
			continue
		}
		if j.ID == "" || j.ID+".json" != name {
			skipped = append(skipped, name)
			continue
		}
		jobs = append(jobs, &j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Seq < jobs[b].Seq })
	return jobs, skipped, nil
}
