// Package host models the CPU side of the system: the global thread
// block dispatcher (the host interface + thread block scheduler of
// Figure 1) and the CPU page fault service of the baseline demand
// paging flow (Figure 2), in which the GPU driver on the CPU allocates
// GPU physical memory, transfers page contents, and updates both page
// tables — one fault at a time.
package host

import (
	"fmt"

	"gpues/internal/clock"
	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/interconnect"
	"gpues/internal/obs"
	"gpues/internal/vm"
)

// BlockEmulator produces the dynamic trace of one block and takes
// finished traces back for reuse; *emu.Emulator implements it.
type BlockEmulator interface {
	EmulateBlock(blockID int) (*emu.BlockTrace, error)
	Release(bt *emu.BlockTrace)
}

// Dispatcher issues thread blocks to SMs in block-ID order, emulates
// each block lazily the first time it is handed out, and returns each
// finished block's trace to the emulator.
type Dispatcher struct {
	total int
	next  int
	done  int
	//simlint:ckptskip the emulator over the workload, re-supplied at construction; its functional memory checkpoints as the emu.memory section
	emul BlockEmulator
	//simlint:ckptskip a non-nil error ends the run before any checkpoint is cut
	err error
}

// NewDispatcher builds a dispatcher over a grid of total blocks whose
// traces e produces.
func NewDispatcher(total int, e BlockEmulator) (*Dispatcher, error) {
	if total <= 0 || e == nil {
		return nil, fmt.Errorf("host: dispatcher needs blocks (%d) and an emulator", total)
	}
	return &Dispatcher{total: total, emul: e}, nil
}

// NextBlock implements sm.BlockSource.
func (d *Dispatcher) NextBlock(smID int) (*emu.BlockTrace, bool) {
	if d.err != nil || d.next >= d.total {
		return nil, false
	}
	bt, err := d.emul.EmulateBlock(d.next)
	if err != nil {
		d.err = err
		return nil, false
	}
	d.next++
	return bt, true
}

// BlockDone implements sm.BlockSource: the trace goes back to the
// emulator, whose next EmulateBlock reuses it.
//
//simlint:releases 1
func (d *Dispatcher) BlockDone(smID int, bt *emu.BlockTrace) {
	d.done++
	d.emul.Release(bt)
}

// PendingBlocks implements sm.BlockSource.
func (d *Dispatcher) PendingBlocks() int { return d.total - d.next }

// Completed returns the number of finished blocks.
func (d *Dispatcher) Completed() int { return d.done }

// Issued returns the number of blocks handed out to SMs so far.
func (d *Dispatcher) Issued() int { return d.next }

// AllDone reports whether every block of the grid has completed.
func (d *Dispatcher) AllDone() bool { return d.done >= d.total }

// Err returns any emulation error encountered while dispatching.
func (d *Dispatcher) Err() error { return d.err }

// FaultStats counts CPU-side fault service activity.
type FaultStats struct {
	Served      int64
	Migrations  int64
	AllocOnly   int64
	PagesMapped int64
	// QueueCycles accumulates the time fault requests spent waiting for
	// the CPU handler to become free.
	QueueCycles int64
}

// FaultService is the CPU driver's page fault handler: a single server
// whose per-fault occupancy is the measured CPU handler cost, followed
// by the interconnect round trip (and data transfer for dirty pages).
// Faults are serviced in arrival order; under a fault storm the queueing
// delay here is what makes CPU-side handling the bottleneck (Section
// 2.4).
type FaultService struct {
	//simlint:ckptskip wiring to the shared event queue, which checkpoints itself as the clock section
	q *clock.Queue
	//simlint:ckptskip wiring to the interconnect, which checkpoints itself as its own section
	link *interconnect.Link
	//simlint:ckptskip wiring to the address space, which checkpoints itself as its own section
	as *vm.AddressSpace
	//simlint:ckptskip construction-time region granularity, fixed for the life of the service
	gran uint64
	//simlint:ckptskip immutable cost table from config, re-supplied at construction
	costs config.FaultCosts
	//simlint:ckptskip unit-conversion closure over the clock rate, re-supplied at construction
	toCyc func(us float64) int64
	//simlint:ckptskip chaos hook, fixed when the plan is attached; the plan checkpoints its progress as the chaos section
	delayer Delayer

	cpuFree int64 // next cycle the CPU handler is free
	stats   FaultStats
	//simlint:ckptskip a non-nil error ends the run before any checkpoint is cut
	err error
	//simlint:ckptskip tracer wiring; trace emission is observability, not simulation state
	tr *obs.Tracer
	//simlint:ckptskip regions in service; the clock digests their events and replay rebuilds them
	serving clock.Table[serviceRun]
	//simlint:ckptskip handler built once at construction
	occupyFn clock.Handler // occupies the link for arg cycles
	//simlint:ckptskip handler built once at construction
	finishFn clock.Handler // finishes serving[arg]
}

// serviceRun is one region in service.
type serviceRun struct {
	region uint64
	smID   int
	done   clock.Event
}

// SetTracer installs the event tracer; nil disables tracing.
func (s *FaultService) SetTracer(tr *obs.Tracer) { s.tr = tr }

// RegisterMetrics exposes the CPU fault service's counters as gauges.
func (s *FaultService) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix+".served", func() int64 { return s.stats.Served })
	reg.Gauge(prefix+".migrations", func() int64 { return s.stats.Migrations })
	reg.Gauge(prefix+".alloc_only", func() int64 { return s.stats.AllocOnly })
	reg.Gauge(prefix+".pages_mapped", func() int64 { return s.stats.PagesMapped })
	reg.Gauge(prefix+".queue_cycles", func() int64 { return s.stats.QueueCycles })
}

// Delayer is the chaos hook of the fault service: extra cycles added to
// one fault-service round trip. A nil Delayer costs a pointer test.
type Delayer interface {
	ServiceDelay(regionBase uint64) int64
}

// NewFaultService builds the CPU fault service. toCycles converts
// microseconds to core cycles.
func NewFaultService(q *clock.Queue, link *interconnect.Link, as *vm.AddressSpace,
	granularity int, costs config.FaultCosts, toCycles func(float64) int64) (*FaultService, error) {
	if granularity <= 0 || toCycles == nil {
		return nil, fmt.Errorf("host: bad fault service config")
	}
	s := &FaultService{
		q: q, link: link, as: as,
		gran:  uint64(granularity),
		costs: costs,
		toCyc: toCycles,
	}
	s.occupyFn = s.occupyLink
	s.finishFn = s.finish
	return s, nil
}

// Stats returns a copy of the counters.
func (s *FaultService) Stats() FaultStats { return s.stats }

// SetDelayer installs the chaos hook; nil removes it.
func (s *FaultService) SetDelayer(d Delayer) { s.delayer = d }

// Err returns the first fault-resolution failure (GPU memory
// exhaustion); the simulator surfaces it instead of a panic.
func (s *FaultService) Err() error { return s.err }

// Service resolves the fault handling region containing regionBase:
// after the CPU handler and interconnect occupancy, every registered
// page of the region is mapped into GPU memory, and done runs. The
// caller (the GPU fault unit) is responsible for merging concurrent
// faults to the same region.
//
//simlint:noalloc
func (s *FaultService) Service(regionBase uint64, kind vm.FaultKind, smID int, done clock.Event) {
	total := s.costs.AllocOnlyUS
	if kind == vm.FaultMigrate {
		total = s.costs.MigrateUS
		s.stats.Migrations++
	} else {
		s.stats.AllocOnly++
	}
	s.stats.Served++
	totalCycles := s.toCyc(total)
	if s.delayer != nil {
		if d := s.delayer.ServiceDelay(regionBase); d > 0 {
			totalCycles += d
		}
	}
	linkCycles := totalCycles - s.toCyc(s.costs.CPUHandleUS)
	if linkCycles < 1 {
		linkCycles = 1
	}

	// The CPU driver handles faults strictly one by one (Section 2.4):
	// the whole measured round trip — interrupt, pinning, allocation,
	// transfer, page table updates — occupies the single handler. The
	// interconnect occupancy runs within that window and is tracked for
	// utilization accounting.
	now := s.q.Now()
	start := now
	if s.cpuFree > start {
		start = s.cpuFree
	}
	s.stats.QueueCycles += start - now
	s.cpuFree = start + totalCycles
	if s.tr != nil {
		s.tr.Emit(-1, obs.KMigrateStart, int32(smID), regionBase, uint64(start-now))
	}
	s.q.At(start, s.occupyFn, linkCycles)
	s.q.At(start+totalCycles, s.finishFn, s.serving.Put(serviceRun{region: regionBase, smID: smID, done: done}))
}

func (s *FaultService) occupyLink(cycles int64) { s.link.Occupy(cycles) }

// finish ends service run id: it maps the region and resolves the
// fault.
func (s *FaultService) finish(id int64) {
	run := s.serving.Take(id)
	if s.tr != nil {
		s.tr.Emit(-1, obs.KMigrateEnd, int32(run.smID), run.region, 0)
	}
	if err := s.mapRegion(run.region); err != nil {
		// Mapping can only fail on GPU memory exhaustion. Record the
		// error for Simulator.firstError and leave the fault pending:
		// the run aborts with a structured error instead of a panic.
		if s.err == nil {
			s.err = fmt.Errorf("host: fault resolution at region %#x failed: %w", run.region, err)
		}
		return
	}
	run.done.Fire()
}

// mapRegion maps every registered page of the region into GPU memory.
func (s *FaultService) mapRegion(regionBase uint64) error {
	pageSize := s.as.PageSize()
	for p := regionBase; p < regionBase+s.gran; p += pageSize {
		if s.as.RegionOf(p) == nil {
			continue // handling granularity may extend past the buffer
		}
		if _, err := s.as.MapToGPU(p, nil); err != nil {
			return err
		}
		s.stats.PagesMapped++
	}
	return nil
}
