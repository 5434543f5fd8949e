package core

import (
	"fmt"

	"gpues/internal/clock"
	"gpues/internal/obs"
	"gpues/internal/vm"
)

// LocalStats counts GPU-local fault handling activity.
type LocalStats struct {
	Handled     int64
	PagesMapped int64
	// SerialCycles accumulates time handler invocations waited for
	// their SM's handler slot (intra-SM serialization).
	SerialCycles int64
}

// LocalHandler is the GPU-resident page fault handler of use case 2
// (Section 4.2): when a warp faults on a page with no physical backing,
// it switches to system mode and runs the handler on its own SM —
// allocating a physical page from the SM's partition of the GPU
// physical space and updating the GPU page table — without interrupting
// the CPU.
//
// Handler invocations proceed in parallel up to the effective handler
// concurrency, which is where the throughput win over the single CPU
// handler comes from. The measured per-invocation latency is 20 us
// (Section 5.4), an order of magnitude above the CPU handler's, and the
// GPU still wins on throughput under fault storms.
// DefaultHandlerConcurrency returns the effective parallelism of the
// GPU-local handler for a GPU of the given size: any faulting warp can
// enter system mode, but in the paper the handlers serialize on
// system-level synchronization around the shared page table update
// (Section 4.2) and on shared allocator metadata. The model does not
// execute that synchronization; it bounds the handlers by this count,
// a small effective concurrency — about one handler per five SMs
// (3 for the paper's 16-SM configuration) — rather than one per warp.
// Local handling therefore improves with the number of SMs
// (Section 5.5).
func DefaultHandlerConcurrency(numSMs int) int {
	c := numSMs / 5
	if c < 1 {
		c = 1
	}
	return c
}

type LocalHandler struct {
	//simlint:ckptskip wiring to the shared event queue, which checkpoints itself as the clock section
	q *clock.Queue
	//simlint:ckptskip wiring to the address space, which checkpoints itself as its own section
	as *vm.AddressSpace
	//simlint:ckptskip construction-time region granularity, fixed for the life of the handler
	gran uint64
	//simlint:ckptskip construction-time handler cost, fixed for the life of the handler
	cost   int64   // handler occupancy in cycles
	free   []int64 // handler slot next-free cycles (global pool)
	allocs []*vm.PhysAllocator
	stats  LocalStats
	//simlint:ckptskip a non-nil error ends the run before any checkpoint is cut
	err error
	//simlint:ckptskip tracer wiring; trace emission is observability, not simulation state
	tr *obs.Tracer
	//simlint:ckptskip handler invocations in progress; the clock digests their events and replay rebuilds them
	running clock.Table[localRun]
	//simlint:ckptskip handler built once at construction
	finishFn clock.Handler // finishes running[arg]
}

// localRun is one handler invocation in progress.
type localRun struct {
	region uint64
	smID   int
	done   clock.Event
}

// SetTracer installs the event tracer; nil disables tracing.
func (h *LocalHandler) SetTracer(tr *obs.Tracer) { h.tr = tr }

// RegisterMetrics exposes the local handler's counters as gauges.
func (h *LocalHandler) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix+".handled", func() int64 { return h.stats.Handled })
	reg.Gauge(prefix+".pages_mapped", func() int64 { return h.stats.PagesMapped })
	reg.Gauge(prefix+".serial_cycles", func() int64 { return h.stats.SerialCycles })
}

// NewLocalHandler builds the handler for numSMs SMs, partitioning the
// GPU physical allocator so concurrent handlers allocate without
// contention (the paper's address space partitioning).
func NewLocalHandler(q *clock.Queue, as *vm.AddressSpace, numSMs, granularity int,
	handlerCycles int64, concurrency int) (*LocalHandler, error) {
	if numSMs <= 0 || granularity <= 0 || handlerCycles <= 0 {
		return nil, fmt.Errorf("core: bad local handler config (%d SMs, %d gran, %d cycles)",
			numSMs, granularity, handlerCycles)
	}
	if concurrency <= 0 {
		concurrency = DefaultHandlerConcurrency(numSMs)
	}
	allocs, err := as.GPUPhys.Partition(numSMs)
	if err != nil {
		return nil, fmt.Errorf("core: partitioning GPU physical memory: %w", err)
	}
	h := &LocalHandler{
		q:      q,
		as:     as,
		gran:   uint64(granularity),
		cost:   handlerCycles,
		free:   make([]int64, concurrency),
		allocs: allocs,
	}
	h.finishFn = h.finish
	return h, nil
}

// Stats returns a copy of the counters.
func (h *LocalHandler) Stats() LocalStats { return h.stats }

// Err returns the first local fault-resolution failure (partition
// exhaustion); the simulator surfaces it instead of a panic.
func (h *LocalHandler) Err() error { return h.err }

// Service implements Resolver: it runs the handler on the faulting
// warp's SM, allocating from that SM's partition.
//
//simlint:noalloc
func (h *LocalHandler) Service(regionBase uint64, kind vm.FaultKind, smID int, done clock.Event) {
	if smID < 0 || smID >= len(h.allocs) {
		smID = 0
	}
	// Pick the earliest-free handler slot.
	best := 0
	for i := 1; i < len(h.free); i++ {
		if h.free[i] < h.free[best] {
			best = i
		}
	}
	now := h.q.Now()
	start := now
	if h.free[best] > start {
		start = h.free[best]
	}
	h.stats.SerialCycles += start - now
	h.free[best] = start + h.cost
	if h.tr != nil {
		h.tr.Emit(-1, obs.KLocalStart, int32(smID), regionBase, uint64(start-now))
	}
	h.q.At(start+h.cost, h.finishFn, h.running.Put(localRun{region: regionBase, smID: smID, done: done}))
}

// finish ends handler invocation id: it maps the region and resolves
// the fault.
func (h *LocalHandler) finish(id int64) {
	run := h.running.Take(id)
	if h.tr != nil {
		h.tr.Emit(-1, obs.KLocalEnd, int32(run.smID), run.region, 0)
	}
	if err := h.mapRegion(run.region, run.smID); err != nil {
		// Partition exhaustion: record for Simulator.firstError and
		// leave the fault pending so the run aborts with a structured
		// error instead of a panic.
		if h.err == nil {
			h.err = fmt.Errorf("core: local fault resolution at region %#x (SM %d) failed: %w",
				run.region, run.smID, err)
		}
		return
	}
	h.stats.Handled++
	run.done.Fire()
}

// mapRegion marks the region's pages GPU-owned and maps them from the
// SM's private allocator partition.
func (h *LocalHandler) mapRegion(regionBase uint64, smID int) error {
	pageSize := h.as.PageSize()
	for p := regionBase; p < regionBase+h.gran; p += pageSize {
		if h.as.RegionOf(p) == nil {
			continue
		}
		if _, err := h.as.MapToGPU(p, h.allocs[smID]); err != nil {
			return err
		}
		h.stats.PagesMapped++
	}
	return nil
}
