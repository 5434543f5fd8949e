// Package host models the CPU side of the system: the global thread
// block dispatcher (the host interface + thread block scheduler of
// Figure 1) and the CPU page fault service of the baseline demand
// paging flow (Figure 2), in which the GPU driver on the CPU allocates
// GPU physical memory, transfers page contents, and updates both page
// tables — one fault at a time.
package host

import (
	"fmt"
	"sync"

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

// Dispatcher issues thread blocks to SMs in block-ID order and returns
// each finished block's trace to the emulator.
//
// The blocks of the initial fill are emulated on the caller's goroutine
// as they are handed out. After that, EmulateAhead lets a second
// goroutine, the filler, keep one wave of blocks emulated ahead of
// dispatch: a wave is the number of blocks the initial fill took.
// Blocks are emulated in block-ID order whichever goroutine runs them,
// so every trace, and the functional memory after every block, are the
// same as emulating each block when it is handed out; only when the
// emulation happens moves. An emulation error or a trace's exception
// records still reach the SMs when their block is dispatched.
type Dispatcher struct {
	total int
	next  int
	done  int
	// flips counts the bit flips injected into the blocks handed out so
	// far.
	flips int64
	//simlint:ckptskip the emulator over the workload, re-supplied at construction; its functional memory checkpoints as the emu.memory section
	emul BlockEmulator
	//simlint:ckptskip a non-nil error ends the run before any checkpoint is cut
	err error
	//simlint:ckptskip traces of blocks not handed out yet: Settle, which every checkpoint runs first, makes the ring a pure function of next, and its memory effects checkpoint as emu.memory
	ahead *lookahead
}

// lookahead is the ring of traces the filler emulates ahead of
// dispatch: the trace of block b sits in ring[b%len(ring)] from the
// time it is emulated until it is handed out. mu guards every field
// below it, which the filler and the dispatching goroutine share.
type lookahead struct {
	mu sync.Mutex
	// cond is signalled whenever filled grows or the filler stops.
	cond sync.Cond
	ring []*emu.BlockTrace
	// taken is the dispatcher's next, and filled the number of blocks
	// emulated: the ring holds blocks [taken, filled).
	taken, filled int
	// err is the emulation error of block filled; the filler stops
	// there for good.
	err error
	// running is set while a filler goroutine is alive.
	running bool
}

// NewDispatcher builds a dispatcher over a grid of total blocks whose
// traces e produces.
func NewDispatcher(total int, e BlockEmulator) (*Dispatcher, error) {
	if total <= 0 || e == nil {
		return nil, fmt.Errorf("host: dispatcher needs blocks (%d) and an emulator", total)
	}
	return &Dispatcher{total: total, emul: e}, nil
}

// EmulateAhead ends the initial fill: from now on a filler goroutine
// keeps the next wave of blocks, as many as have been handed out so
// far, emulated ahead of dispatch. A grid that fit in the initial fill
// starts none. Call it once, after the initial fill and before any
// other block is handed out.
func (d *Dispatcher) EmulateAhead() {
	if d.ahead != nil || d.err != nil || d.next == 0 || d.next >= d.total {
		return
	}
	a := &lookahead{ring: make([]*emu.BlockTrace, d.next), taken: d.next, filled: d.next}
	a.cond.L = &a.mu
	d.ahead = a
	a.mu.Lock()
	d.wake()
	a.mu.Unlock()
}

// target is the number of blocks the ring keeps emulated: one wave
// past the blocks handed out, within the grid. The caller holds
// d.ahead.mu.
func (d *Dispatcher) target() int { return min(d.total, d.ahead.taken+len(d.ahead.ring)) }

// wake starts a filler if none is running and the ring has room.
// The caller holds d.ahead.mu.
func (d *Dispatcher) wake() {
	a := d.ahead
	if a.running || a.err != nil || a.filled >= d.target() {
		return
	}
	a.running = true
	//simlint:ignore determinism the filler only emulates blocks in block-ID order, ahead of dispatch; the timing loop takes each trace in that order, and Settle parks it at a fixed block count before anything observes functional memory
	go d.fill()
}

// fill is the filler: it emulates blocks in order until the ring is
// full, the grid is exhausted or a block fails, and then exits, so a
// dropped simulation leaves no goroutine behind.
func (d *Dispatcher) fill() {
	a := d.ahead
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.err == nil && a.filled < d.target() {
		b := a.filled
		a.mu.Unlock()
		bt, err := d.emul.EmulateBlock(b)
		a.mu.Lock()
		if err != nil {
			a.err = err
			break
		}
		a.ring[b%len(a.ring)] = bt
		a.filled++
		a.cond.Broadcast()
	}
	a.running = false
	a.cond.Broadcast()
}

// Settle tops the ring up to min(total, handed out + one wave) blocks,
// or up to the first block whose emulation fails, and waits for the
// filler to stop. Functional memory then holds a pure function of the
// number of blocks handed out, and nothing writes it until the next
// block is handed out. Checkpoints, digests and the end of a run
// settle first.
func (d *Dispatcher) Settle() {
	a := d.ahead
	if a == nil {
		return
	}
	a.mu.Lock()
	d.wake()
	for a.running {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

// NextBlock implements sm.BlockSource.
func (d *Dispatcher) NextBlock(smID int) (*emu.BlockTrace, bool) {
	if d.err != nil || d.next >= d.total {
		return nil, false
	}
	var bt *emu.BlockTrace
	if a := d.ahead; a != nil {
		a.mu.Lock()
		d.wake()
		for a.filled <= d.next && a.running {
			a.cond.Wait()
		}
		if a.filled > d.next {
			slot := &a.ring[d.next%len(a.ring)]
			bt, *slot = *slot, nil
			a.taken = d.next + 1
			d.wake()
		} else {
			d.err = a.err
		}
		a.mu.Unlock()
	} else {
		bt, d.err = d.emul.EmulateBlock(d.next)
	}
	if d.err != nil {
		return nil, false
	}
	d.next++
	d.flips += int64(bt.Flips)
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

// Flips returns the number of bit flips injected into the blocks
// handed out so far.
func (d *Dispatcher) Flips() int64 { return d.flips }

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
