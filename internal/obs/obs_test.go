package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func boundTracer(filter uint64, ringSize int) (*Tracer, *int64) {
	cycle := new(int64)
	tr := New(Options{Filter: filter, RingSize: ringSize})
	tr.Bind(2, func() int64 { return *cycle })
	return tr, cycle
}

func TestEmitAndMerge(t *testing.T) {
	tr, cycle := boundTracer(0, 16)
	*cycle = 5
	tr.Emit(0, KFetch, 3, 1, 2)
	tr.Emit(1, KCommit, 4, 7, 8)
	*cycle = 9
	tr.Emit(-1, KRegionQueued, 0, 0x40000, 1)

	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("events = %d, want 3", len(ev))
	}
	// Merged in emission order regardless of ring.
	if ev[0].Kind != KFetch || ev[1].Kind != KCommit || ev[2].Kind != KRegionQueued {
		t.Fatalf("order = %v %v %v", ev[0].Kind, ev[1].Kind, ev[2].Kind)
	}
	if ev[2].SM != -1 || ev[2].Cycle != 9 || ev[2].A != 0x40000 {
		t.Fatalf("system event = %+v", ev[2])
	}
	if ev[0].Warp != 3 || ev[0].SM != 0 || ev[0].Cycle != 5 {
		t.Fatalf("sm event = %+v", ev[0])
	}
}

func TestRingOverwriteKeepsNewest(t *testing.T) {
	tr, cycle := boundTracer(0, 4)
	for i := 0; i < 10; i++ {
		*cycle = int64(i)
		tr.Emit(0, KIssue, 0, uint64(i), 0)
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained = %d, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(6 + i); e.A != want {
			t.Fatalf("event %d: A = %d, want %d", i, e.A, want)
		}
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
}

func TestFilter(t *testing.T) {
	m, err := ParseFilter("fault,switch")
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := boundTracer(m, 16)
	tr.Emit(0, KFetch, 0, 0, 0)     // filtered out
	tr.Emit(0, KSquash, 0, 0, 0)    // fault group
	tr.Emit(0, KSwitchOut, 0, 0, 0) // switch group
	if got := len(tr.Events()); got != 2 {
		t.Fatalf("events = %d, want 2", got)
	}
	if tr.Enabled(KFetch) || !tr.Enabled(KSquash) {
		t.Fatal("Enabled does not reflect the filter")
	}

	// Individual kind names parse too.
	m, err = ParseFilter("commit")
	if err != nil {
		t.Fatal(err)
	}
	if m != 1<<KCommit {
		t.Fatalf("mask = %#x", m)
	}
	if _, err := ParseFilter("nonsense"); err == nil {
		t.Fatal("unknown filter token accepted")
	}
	m, err = ParseFilter("")
	if err != nil || m != AllKinds {
		t.Fatalf("empty filter: mask=%#x err=%v", m, err)
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if kindNames[k] == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	for r := StallReason(0); r < NumStallReasons; r++ {
		if stallNames[r] == "" {
			t.Errorf("stall reason %d has no name", r)
		}
	}
}

// TestEmitDoesNotAllocate is the hot-path guard: emitting into a warm
// tracer, emitting through a nil tracer, and updating instruments must
// all be allocation-free.
func TestEmitDoesNotAllocate(t *testing.T) {
	tr, cycle := boundTracer(0, 1024)
	*cycle = 1
	var nilTr *Tracer
	h := &Histogram{}
	var nilH *Histogram

	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(1, KCommit, 7, 1, 2)
	}); n != 0 {
		t.Errorf("enabled Emit allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		nilTr.Emit(1, KCommit, 7, 1, 2)
		nilH.Observe(5)
	}); n != 0 {
		t.Errorf("nil-receiver path allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
	}); n != 0 {
		t.Errorf("instrument update allocates %.1f/op", n)
	}
}

func TestHistogram(t *testing.T) {
	h := &Histogram{}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 5050 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Mean != 50.5 {
		t.Fatalf("mean = %v", s.Mean)
	}
	// Bucket-resolution approximations: p50 of 1..100 lands in the
	// [32,64) bucket, p99 in [64,128) clamped to max.
	if s.P50 != 64 {
		t.Fatalf("p50 = %d", s.P50)
	}
	if s.P99 != 100 {
		t.Fatalf("p99 = %d", s.P99)
	}
	if (&Histogram{}).Snapshot() != (HistogramSnapshot{}) {
		t.Fatal("empty histogram snapshot not zero")
	}
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Gauge("b.count", func() int64 { return 2 })
		r.Gauge("a.count", func() int64 { return 1 })
		r.Gauge("z.gauge", func() int64 { return 9 })
		r.Histogram("m.hist").Observe(10)
		return r.Snapshot()
	}
	var j1, j2, c1, c2 bytes.Buffer
	if err := build().WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() {
		t.Fatal("JSON snapshots differ across identical builds")
	}
	if err := build().WriteCSV(&c1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteCSV(&c2); err != nil {
		t.Fatal(err)
	}
	if c1.String() != c2.String() {
		t.Fatal("CSV snapshots differ across identical builds")
	}
	if !strings.HasPrefix(c1.String(), "metric,value\n") {
		t.Fatalf("csv header missing: %q", c1.String())
	}
}

func TestChromeExportValid(t *testing.T) {
	tr, cycle := boundTracer(0, 64)
	*cycle = 10
	tr.Emit(0, KFaultRaised, 3, 0x1000, 1)
	tr.Emit(0, KSaveStart, 0, 2, 4096)
	*cycle = 20
	tr.Emit(0, KSaveEnd, 0, 2, 0)
	tr.Emit(-1, KMigrateStart, 0, 0x40000, 0)
	*cycle = 900
	tr.Emit(-1, KMigrateEnd, 0, 0x40000, 0)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	// 3 process_name metadata rows (2 SMs + system) + 5 events.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("trace events = %d, want 8", len(doc.TraceEvents))
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e["ph"].(string)]++
	}
	if phases["M"] != 3 || phases["i"] != 1 || phases["b"] != 2 || phases["e"] != 2 {
		t.Fatalf("phase counts = %v", phases)
	}
	// Span begin/end pairs share an id.
	var ids []string
	for _, e := range doc.TraceEvents {
		if e["name"] == "migrate-start" || e["name"] == "migrate-end" {
			ids = append(ids, e["id"].(string))
		}
	}
	if len(ids) != 2 || ids[0] != ids[1] {
		t.Fatalf("migrate span ids = %v", ids)
	}
}
