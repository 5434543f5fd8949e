package obsrv

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"gpues/internal/obs"
)

func fabricSnapshot() obs.Snapshot {
	return obs.Snapshot{
		Counters: map[string]int64{"fabric.jobs.submitted": 7, "fabric.cache.hits": 3},
		Gauges:   map[string]int64{"fabric.queue.depth": 4},
	}
}

func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// The fabric snapshot renders on /metrics even when no simulator
// telemetry was ever published — a coordinator process has no
// simulation of its own.
func TestMetricsFabricOnly(t *testing.T) {
	s := New("127.0.0.1:0")
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if body := fetch(t, "http://"+addr+"/metrics"); body != "" {
		t.Fatalf("empty server served %q", body)
	}
	s.PublishFabric(fabricSnapshot())
	body := fetch(t, "http://"+addr+"/metrics")
	for _, w := range []string{
		"# TYPE gpues_fabric_jobs_submitted counter",
		"gpues_fabric_jobs_submitted 7",
		"gpues_fabric_cache_hits 3",
		"# TYPE gpues_fabric_queue_depth gauge",
		"gpues_fabric_queue_depth 4",
	} {
		if !strings.Contains(body, w) {
			t.Errorf("/metrics missing %q:\n%s", w, body)
		}
	}
	if strings.Contains(body, "gpues_cycle") {
		t.Errorf("fabric-only exposition leaked a telemetry cycle line:\n%s", body)
	}
}
