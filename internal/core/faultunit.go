// Package core implements the paper's system-level exception support:
// the global pending-fault queue maintained by the fill unit, the
// routing of faults to the CPU driver or to the GPU-local handler
// (Section 4.2), and the GPU-resident fault handler itself with its
// per-SM partitioned physical allocators.
//
// The pipeline-level parts of the contribution — warp disable, the
// replay queue, the operand log, squash and replay — live in the SM
// model (internal/sm); this package is the layer that makes a detected
// fault actually get resolved.
package core

import (
	"fmt"

	"gpues/internal/clock"
	"gpues/internal/obs"
	"gpues/internal/vm"
)

// Resolver resolves one fault handling region; done runs when the
// region's pages are mapped on the GPU. host.FaultService implements it
// for the CPU path; LocalHandler for the GPU path.
type Resolver interface {
	Service(regionBase uint64, kind vm.FaultKind, smID int, done clock.Event)
}

// Stats counts fault unit activity.
type Stats struct {
	Raised      int64 // faults raised by SMs (page granularity)
	Regions     int64 // distinct handling regions serviced
	Merged      int64 // faults merged into an in-flight region
	RoutedCPU   int64
	RoutedLocal int64
	// MaxQueue is the high-water mark of the pending fault queue.
	MaxQueue int
}

// regionFault is one region in the pending fault queue, a record of
// the unit's region table, whose index is the payload of its
// completion; the waiters capacity survives reuse. A waiter is 8 bytes,
// a client tag and a payload (see Attach).
type regionFault struct {
	region  uint64
	smID    int // the SM whose fault opened the region
	pos     int
	born    int64 // cycle the region entered the pending queue
	waiters []int64
}

// FaultUnit is the global fault coordinator attached to the fill unit:
// it merges page faults into 64 KB handling regions (Section 5.1),
// tracks the global pending fault queue whose positions drive the local
// scheduler's switch decisions, and routes each region to the CPU
// driver or the GPU-local handler.
type FaultUnit struct {
	//simlint:ckptskip wiring to the shared event queue, which checkpoints itself as the clock section
	q *clock.Queue
	//simlint:ckptskip construction-time region granularity (Section 5.1: 64 KB), fixed for the life of the unit
	gran uint64
	//simlint:ckptskip wiring to the CPU driver resolver, which checkpoints itself as its own section
	cpu Resolver
	//simlint:ckptskip wiring to the GPU-local resolver, which checkpoints itself as its own section
	local Resolver // nil when use case 2 is disabled

	pending map[uint64]*regionFault
	//simlint:ckptskip every region record ever built, by id: the payload index of its completion; pending names the live ones
	regionTab clock.Table[regionFault]
	//simlint:ckptskip handler built once at construction
	completeFn clock.Handler // completes regionTab.At(arg)
	//simlint:ckptskip handlers of the raising SMs, registered once at construction
	clients clock.Clients[clock.Handler]
	queued  int
	stats   Stats
	//simlint:ckptskip a non-nil abort ends the run before any checkpoint is cut
	abort error

	//simlint:ckptskip tracer wiring; trace emission is observability, not simulation state
	tr *obs.Tracer
	//simlint:ckptskip wiring to a shared instrument; the obs registry checkpoints it as its own section
	latency *obs.Histogram // region service latency, queue entry to resolution
}

// SetTracer installs the event tracer; nil disables tracing.
func (u *FaultUnit) SetTracer(tr *obs.Tracer) { u.tr = tr }

// SetLatency installs the fault-service-latency histogram; nil disables.
func (u *FaultUnit) SetLatency(h *obs.Histogram) { u.latency = h }

// RegisterMetrics exposes the fault unit's counters as gauges.
func (u *FaultUnit) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix+".raised", func() int64 { return u.stats.Raised })
	reg.Gauge(prefix+".regions", func() int64 { return u.stats.Regions })
	reg.Gauge(prefix+".merged", func() int64 { return u.stats.Merged })
	reg.Gauge(prefix+".routed_cpu", func() int64 { return u.stats.RoutedCPU })
	reg.Gauge(prefix+".routed_local", func() int64 { return u.stats.RoutedLocal })
	reg.Gauge(prefix+".max_queue", func() int64 { return int64(u.stats.MaxQueue) })
}

// NewFaultUnit builds the fault unit. local may be nil.
func NewFaultUnit(q *clock.Queue, granularity int, cpu Resolver, local Resolver) (*FaultUnit, error) {
	if granularity <= 0 || granularity&(granularity-1) != 0 {
		return nil, fmt.Errorf("core: fault granularity %d not a power of two", granularity)
	}
	if cpu == nil {
		return nil, fmt.Errorf("core: fault unit needs the CPU resolver")
	}
	u := &FaultUnit{
		q:       q,
		gran:    uint64(granularity),
		cpu:     cpu,
		local:   local,
		pending: make(map[uint64]*regionFault),
	}
	u.completeFn = u.complete
	return u, nil
}

// Stats returns a copy of the counters.
func (u *FaultUnit) Stats() Stats { return u.stats }

// Pending returns the current pending fault queue length.
func (u *FaultUnit) Pending() int { return u.queued }

// Err returns the abort condition, if an invalid access was raised.
func (u *FaultUnit) Err() error { return u.abort }

// Attach implements sm.FaultSink: it registers the handler a client's
// resolved faults run, and returns the client's tag.
func (u *FaultUnit) Attach(resolved clock.Handler) int64 { return u.clients.Add(resolved) }

// RaiseFault implements sm.FaultSink: it registers a page fault,
// returning its position in the global pending fault queue. Faults to a
// region already being handled merge and share its position. waiter is
// a client's tag ORed with the payload its handler runs with once the
// region resolves.
//
//simlint:noalloc
func (u *FaultUnit) RaiseFault(pageVA uint64, kind vm.FaultKind, smID int, waiter int64) int {
	u.stats.Raised++
	if kind == vm.FaultInvalid {
		// The handler requests the CPU to abort the kernel (Section
		// 4.2); the simulation surfaces it as an error.
		if u.abort == nil {
			//simlint:ignore noalloc the run aborts; happens at most once
			u.abort = fmt.Errorf("core: invalid memory access at %#x (SM %d): kernel aborted", pageVA, smID)
		}
		return u.queued
	}
	region := pageVA &^ (u.gran - 1)
	if rf, ok := u.pending[region]; ok {
		u.stats.Merged++
		rf.waiters = append(rf.waiters, waiter)
		return rf.pos
	}
	id, rf := u.regionTab.Get()
	*rf = regionFault{region: region, smID: smID, pos: u.queued, born: u.q.Now(),
		waiters: append(rf.waiters[:0], waiter)}
	u.pending[region] = rf
	u.queued++
	if u.queued > u.stats.MaxQueue {
		u.stats.MaxQueue = u.queued
	}
	u.stats.Regions++
	if u.tr != nil {
		u.tr.Emit(-1, obs.KRegionQueued, int32(smID), region, uint64(rf.pos))
	}

	done := clock.Event{Fn: u.completeFn, Arg: id}
	// Route: first-touch (allocation-only) faults can be handled on the
	// GPU itself when local handling is enabled; migrations and
	// everything else go to the CPU driver.
	if kind == vm.FaultAllocOnly && u.local != nil {
		u.stats.RoutedLocal++
		u.local.Service(region, kind, smID, done)
	} else {
		u.stats.RoutedCPU++
		u.cpu.Service(region, kind, smID, done)
	}
	return rf.pos
}

// complete resolves region record id: it leaves the pending queue, its
// waiters run in raise order, and the record is freed.
func (u *FaultUnit) complete(id int64) {
	rf := u.regionTab.At(id)
	delete(u.pending, rf.region)
	u.queued--
	wait := u.q.Now() - rf.born
	u.latency.Observe(wait)
	if u.tr != nil {
		u.tr.Emit(-1, obs.KRegionResolved, int32(rf.smID), rf.region, uint64(wait))
	}
	for _, w := range rf.waiters {
		fn, arg := u.clients.Get(w)
		fn(arg)
	}
	u.regionTab.Free(id, rf)
}
