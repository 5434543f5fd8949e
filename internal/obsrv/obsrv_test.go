package obsrv

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"gpues/internal/obs"
	"gpues/internal/sim"
)

func TestValidateAddr(t *testing.T) {
	for _, ok := range []string{":8080", "127.0.0.1:0", "localhost:http", "[::1]:9"} {
		if err := ValidateAddr(ok); err != nil {
			t.Errorf("ValidateAddr(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", "8080", "127.0.0.1", "host:port:extra"} {
		if err := ValidateAddr(bad); err == nil {
			t.Errorf("ValidateAddr(%q) accepted", bad)
		}
	}
}

// testSnapshot builds a snapshot with a sampled series, metrics and a
// trace tail — the shape a live simulation publishes.
func testSnapshot(cycle int64) sim.TelemetrySnapshot {
	r := obs.NewRegistry()
	r.Gauge("excep.pending", func() int64 { return 0 })
	r.Histogram("fault.latency_cycles").Observe(1200)
	sp := obs.NewSampler(1000, r)
	for c := int64(1000); c <= cycle; c += 1000 {
		sp.Sample(c)
	}
	metrics := r.Snapshot()
	metrics.Counters = map[string]int64{"sm.committed": cycle * 2}
	tr := obs.New(obs.Options{RingSize: 64})
	now := cycle
	tr.Bind(2, func() int64 { return now })
	tr.Emit(0, obs.KCommit, 7, 1, 2)
	tr.Emit(1, obs.KFaultRaised, 3, 0x1000, 0)
	return sim.TelemetrySnapshot{
		Cycle:          cycle,
		ActiveSMs:      3,
		TotalSMs:       16,
		BlocksDone:     5,
		BlocksTotal:    64,
		Committed:      cycle * 2,
		WatchdogWindow: 2_000_000,
		SinceProgress:  42,
		Metrics:        metrics,
		Series:         sp.View(),
		Trace:          tr.Tail(64),
	}
}

// startServer starts a server on an ephemeral port and returns its
// base URL.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := New("127.0.0.1:0")
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, "http://" + addr
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestEndpoints(t *testing.T) {
	s, base := startServer(t)

	// Before the first publish every endpoint still answers.
	code, body := get(t, base+"/status")
	if code != http.StatusOK || !strings.Contains(body, `"published": false`) {
		t.Fatalf("pre-publish /status = %d %q", code, body)
	}
	if code, _ := get(t, base+"/metrics"); code != http.StatusOK {
		t.Fatalf("pre-publish /metrics = %d", code)
	}

	s.PublishTelemetry(testSnapshot(5000))
	s.SetCampaign(3, 12, "sgemm/replay-queue done")

	code, body = get(t, base+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status = %d", code)
	}
	var st map[string]any
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if st["cycle"].(float64) != 5000 || st["published"] != true {
		t.Errorf("/status = %s", body)
	}
	if st["samples"].(float64) != 5 {
		t.Errorf("samples = %v, want 5", st["samples"])
	}
	camp := st["campaign"].(map[string]any)
	if camp["done"].(float64) != 3 || camp["total"].(float64) != 12 {
		t.Errorf("campaign = %v", camp)
	}
	wd := st["watchdog"].(map[string]any)
	if wd["since_progress"].(float64) != 42 {
		t.Errorf("watchdog = %v", wd)
	}

	_, body = get(t, base+"/metrics")
	for _, want := range []string{
		"gpues_cycle 5000",
		"gpues_sm_committed 10000",
		"# TYPE gpues_sm_committed counter",
		"# TYPE gpues_excep_pending gauge",
		"gpues_fault_latency_cycles_count 1",
		`gpues_fault_latency_cycles{quantile="0.99"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics misses %q:\n%s", want, body)
		}
	}

	_, body = get(t, base+"/series")
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 6 { // header + 5 samples
		t.Fatalf("/series has %d lines:\n%s", len(lines), body)
	}
	if !strings.Contains(lines[0], "gpues-series/1") {
		t.Errorf("series header %q", lines[0])
	}

	_, body = get(t, base+"/trace/last?n=1")
	var events []map[string]any
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/trace/last not JSON: %v\n%s", err, body)
	}
	if len(events) != 1 || events[0]["kind"] != "fault-raised" {
		t.Errorf("/trace/last = %s", body)
	}
	if code, _ := get(t, base+"/trace/last?n=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad n returned %d", code)
	}

	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof cmdline = %d", code)
	}
}

// TestConcurrentPublishAndServe drives publishes and reads in parallel;
// under -race this proves the atomic-snapshot handoff is race-clean.
func TestConcurrentPublishAndServe(t *testing.T) {
	s, base := startServer(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := int64(1); c <= 50; c++ {
			s.PublishTelemetry(testSnapshot(c * 1000))
			s.SetCampaign(int(c), 50, fmt.Sprintf("run %d", c))
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for _, ep := range []string{"/status", "/metrics", "/series", "/trace/last?n=4"} {
					if code, _ := get(t, base+ep); code != http.StatusOK {
						t.Errorf("%s = %d", ep, code)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
