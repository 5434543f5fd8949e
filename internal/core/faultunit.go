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
	Service(regionBase uint64, kind vm.FaultKind, smID int, done func())
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

type regionFault struct {
	pos     int
	born    int64 // cycle the region entered the pending queue
	waiters []func()
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
	return &FaultUnit{
		q:       q,
		gran:    uint64(granularity),
		cpu:     cpu,
		local:   local,
		pending: make(map[uint64]*regionFault),
	}, nil
}

// Stats returns a copy of the counters.
func (u *FaultUnit) Stats() Stats { return u.stats }

// Pending returns the current pending fault queue length.
func (u *FaultUnit) Pending() int { return u.queued }

// Err returns the abort condition, if an invalid access was raised.
func (u *FaultUnit) Err() error { return u.abort }

// RaiseFault implements sm.FaultSink: it registers a page fault,
// returning its position in the global pending fault queue. Faults to a
// region already being handled merge and share its position.
func (u *FaultUnit) RaiseFault(pageVA uint64, kind vm.FaultKind, smID int, resolved func()) int {
	u.stats.Raised++
	if kind == vm.FaultInvalid {
		// The handler requests the CPU to abort the kernel (Section
		// 4.2); the simulation surfaces it as an error.
		if u.abort == nil {
			u.abort = fmt.Errorf("core: invalid memory access at %#x (SM %d): kernel aborted", pageVA, smID)
		}
		return u.queued
	}
	region := pageVA &^ (u.gran - 1)
	if rf, ok := u.pending[region]; ok {
		u.stats.Merged++
		rf.waiters = append(rf.waiters, resolved)
		return rf.pos
	}
	rf := &regionFault{pos: u.queued, born: u.q.Now(), waiters: []func(){resolved}}
	u.pending[region] = rf
	u.queued++
	if u.queued > u.stats.MaxQueue {
		u.stats.MaxQueue = u.queued
	}
	u.stats.Regions++
	if u.tr != nil {
		u.tr.Emit(-1, obs.KRegionQueued, int32(smID), region, uint64(rf.pos))
	}

	complete := func() {
		delete(u.pending, region)
		u.queued--
		wait := u.q.Now() - rf.born
		u.latency.Observe(wait)
		if u.tr != nil {
			u.tr.Emit(-1, obs.KRegionResolved, int32(smID), region, uint64(wait))
		}
		for _, w := range rf.waiters {
			w()
		}
	}
	// Route: first-touch (allocation-only) faults can be handled on the
	// GPU itself when local handling is enabled; migrations and
	// everything else go to the CPU driver.
	if kind == vm.FaultAllocOnly && u.local != nil {
		u.stats.RoutedLocal++
		u.local.Service(region, kind, smID, complete)
	} else {
		u.stats.RoutedCPU++
		u.cpu.Service(region, kind, smID, complete)
	}
	return rf.pos
}
