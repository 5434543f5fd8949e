package experiments

import (
	"reflect"
	"testing"

	"gpues/internal/excep"
)

// resilienceCounts runs a one-benchmark campaign and returns the rows
// keyed by name, for exact comparison.
func resilienceCounts(t *testing.T, opt Options) map[string]map[string]float64 {
	t.Helper()
	r, err := resilience(opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]map[string]float64{}
	for _, row := range r.Rows {
		rows[row.Benchmark] = row.Values
	}
	return rows
}

func TestResilienceCountsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	opt := Options{Scale: 1, Benchmarks: []string{"mri-q"}, Trials: 2}
	a := resilienceCounts(t, opt)
	b := resilienceCounts(t, opt)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("classification counts differ across reruns:\n%v\n%v", a, b)
	}
	for row, vals := range a {
		var total float64
		for _, v := range vals {
			total += v
		}
		if total != 2 {
			t.Errorf("row %s classified %v trials, want 2: %v", row, total, vals)
		}
	}
	if len(a) != len(resilienceProtections) {
		t.Errorf("got %d rows, want the %d-rung protection ladder", len(a), len(resilienceProtections))
	}
}

func TestResiliencePinnedCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	opt := Options{Scale: 1, Benchmarks: []string{"mri-q"}, Trials: 1,
		FlipSeed: 12345, FlipRate: 1e-4, ProtectPin: true, ProtectThreads: 0}
	rows := resilienceCounts(t, opt)
	if len(rows) != 1 {
		t.Fatalf("pinned protection must collapse the ladder to one row, got %v", rows)
	}
	vals, ok := rows["mri-q/t0"]
	if !ok {
		t.Fatalf("missing pinned row mri-q/t0: %v", rows)
	}
	var total float64
	for _, v := range vals {
		total += v
	}
	if total != 1 {
		t.Fatalf("pinned cell classified %v trials, want 1: %v", total, vals)
	}
	if !reflect.DeepEqual(rows, resilienceCounts(t, opt)) {
		t.Fatal("pinned-seed counts differ across reruns")
	}
}

func TestResiliencePreemptibleMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	opt := Options{Scale: 1, Benchmarks: []string{"mri-q"}, Trials: 1,
		ProtectPin: true, ProtectThreads: 0, ExcepMode: excep.ModePreemptible}
	rows := resilienceCounts(t, opt)
	if !reflect.DeepEqual(rows, resilienceCounts(t, opt)) {
		t.Fatal("preemptible-mode counts differ across reruns")
	}
}
