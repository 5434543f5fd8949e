package workloads

import (
	"runtime"
	"testing"

	"gpues/internal/config"
	"gpues/internal/sim"
)

// TestFaultStormFootprint bounds the live heap of halloc-cycle's fault
// storm (lazy output, replay-queue, NVLink, seed 42, scale 1), the
// largest of the bench's fault-driven jobs: its 131,072 first-touch
// faults merge into a few regions, so at the storm's peak most of the
// heap is requests parked behind them. It is measured after
// runtime.GC() at the end of the run, with the simulator still
// reachable, less the heap before the workload was built, so the
// pooled records the storm grew count: clock nodes, trace arrays, LSU
// requests, L1 TLB and fault-unit waiters. With 40-byte clock nodes,
// 8-byte trace lines and 16-byte requests and waiters it was about
// 22 MB; it is about 11 MB with 24-byte nodes, 4-byte lines and
// 8-byte requests and waiters.
func TestFaultStormFootprint(t *testing.T) {
	const boundMB = 13
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	spec, err := Build("halloc-cycle", Params{Scale: 1, Placement: LazyOutput(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.Scheme = config.ReplayQueue
	s, err := sim.New(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	live := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	t.Logf("halloc-cycle: %.1f MB live at the end of %d cycles", live, r.Cycles)
	if live > boundMB {
		t.Errorf("halloc-cycle fault storm holds %.1f MB of live heap, bound %d MB", live, boundMB)
	}
}
