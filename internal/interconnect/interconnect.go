// Package interconnect models the CPU-GPU system link (NVLink or PCIe
// 3.0) as a small number of transfer channels with occupancy: page
// migration and fault signalling traffic queue for a free channel in
// arrival order. The heavy contention of this link under concurrent
// faults is what both use cases of the paper exploit or avoid.
package interconnect

import (
	"fmt"

	"gpues/internal/clock"
	"gpues/internal/obs"
)

// Stats counts link activity.
type Stats struct {
	Transfers   int64
	BusyCycles  int64
	StallCycles int64 // time requests waited for a free channel
}

// Jitter is the chaos hook of the link: it returns extra occupancy
// cycles to add to one transfer. A nil Jitter costs a pointer test.
type Jitter interface {
	TransferJitter(cycles int64) int64
}

// Link is the CPU-GPU interconnect.
type Link struct {
	//simlint:ckptskip identity assigned at construction; the checkpoint section is keyed by it
	name string
	//simlint:ckptskip wiring to the shared event queue, which checkpoints itself as the clock section
	q        *clock.Queue
	channels []int64 // nextFree cycle per channel
	//simlint:ckptskip chaos hook, fixed when the plan is attached; the plan checkpoints its progress as the chaos section
	jitter Jitter
	stats  Stats
}

// New builds a link with the given number of parallel channels.
func New(name string, q *clock.Queue, channels int) (*Link, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("interconnect %s: %d channels", name, channels)
	}
	return &Link{name: name, q: q, channels: make([]int64, channels)}, nil
}

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Stats returns a copy of the counters.
func (l *Link) Stats() Stats { return l.stats }

// RegisterMetrics exposes the link counters as gauges.
func (l *Link) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix+".transfers", func() int64 { return l.stats.Transfers })
	reg.Gauge(prefix+".busy_cycles", func() int64 { return l.stats.BusyCycles })
	reg.Gauge(prefix+".stall_cycles", func() int64 { return l.stats.StallCycles })
}

// SetJitter installs the chaos hook; nil removes it.
func (l *Link) SetJitter(j Jitter) { l.jitter = j }

// Occupy reserves a channel for the given number of cycles and marks
// the cycle the occupancy ends. Requests wait for the earliest-free
// channel.
func (l *Link) Occupy(cycles int64) {
	if cycles <= 0 {
		cycles = 1
	}
	if l.jitter != nil {
		if j := l.jitter.TransferJitter(cycles); j > 0 {
			cycles += j
		}
	}
	now := l.q.Now()
	// Any channel already free (nextFree <= now) behaves identically to
	// the earliest-free one — the transfer starts now either way, and
	// the clock never goes back, so values at or below now stay
	// interchangeable forever. Take the first free channel and skip the
	// full min scan in the common uncontended case.
	best := 0
	for i := 0; i < len(l.channels); i++ {
		if l.channels[i] <= now {
			best = i
			break
		}
		if l.channels[i] < l.channels[best] {
			best = i
		}
	}
	start := now
	if l.channels[best] > start {
		start = l.channels[best]
	}
	l.stats.Transfers++
	l.stats.StallCycles += start - now
	l.stats.BusyCycles += cycles
	l.channels[best] = start + cycles
	l.q.Mark(start + cycles)
}

// Utilization returns the fraction of cycles the link was busy over the
// elapsed simulation time (capped at the channel count).
func (l *Link) Utilization() float64 {
	if l.q.Now() == 0 {
		return 0
	}
	return float64(l.stats.BusyCycles) / float64(l.q.Now()*int64(len(l.channels)))
}
