// Package dram models the GPU's off-chip memory as a fixed access
// latency plus a shared bandwidth pipe (Table 1: 200 cycles, 256 GB/s).
// Requests queue for bandwidth in arrival order; completion is when the
// data has both waited for the pipe and paid the access latency.
package dram

import (
	"fmt"

	"gpues/internal/clock"
	"gpues/internal/obs"
)

// Stats counts DRAM traffic.
type Stats struct {
	Reads     int64
	Writes    int64
	BytesRead int64
	BytesWrit int64
	// StallCycles accumulates cycles requests spent queued for
	// bandwidth beyond the raw latency.
	StallCycles int64
}

// DRAM is the memory controller + devices model. It implements
// cache.Backend for line traffic and serves bulk transfers (context
// save/restore) through Transfer.
type DRAM struct {
	//simlint:ckptskip wiring to the shared event queue, which checkpoints itself as the clock section
	q *clock.Queue
	//simlint:ckptskip construction-time timing parameter, fixed for the life of the model
	latency int64
	//simlint:ckptskip construction-time bandwidth parameter, fixed for the life of the model
	bytesPerCycle float64
	//simlint:ckptskip construction-time geometry, fixed for the life of the model
	lineBytes int
	nextFree  float64 // cycle at which the pipe is free
	stats     Stats
}

// New builds the DRAM model. bytesPerCycle is bandwidth divided by the
// core frequency (256 B/cycle in the baseline).
func New(q *clock.Queue, latency int64, bytesPerCycle float64, lineBytes int) (*DRAM, error) {
	if latency < 0 || bytesPerCycle <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("dram: bad parameters latency=%d bw=%v line=%d",
			latency, bytesPerCycle, lineBytes)
	}
	return &DRAM{q: q, latency: latency, bytesPerCycle: bytesPerCycle, lineBytes: lineBytes}, nil
}

// Stats returns a copy of the counters.
func (d *DRAM) Stats() Stats { return d.stats }

// RegisterMetrics exposes the DRAM counters as gauges.
func (d *DRAM) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.Gauge(prefix+".reads", func() int64 { return d.stats.Reads })
	reg.Gauge(prefix+".writes", func() int64 { return d.stats.Writes })
	reg.Gauge(prefix+".bytes_read", func() int64 { return d.stats.BytesRead })
	reg.Gauge(prefix+".bytes_written", func() int64 { return d.stats.BytesWrit })
	reg.Gauge(prefix+".stall_cycles", func() int64 { return d.stats.StallCycles })
}

// occupy reserves pipe time for n bytes and returns the completion
// cycle (start-of-service plus latency).
func (d *DRAM) occupy(bytes int) int64 {
	now := float64(d.q.Now())
	start := now
	if d.nextFree > start {
		start = d.nextFree
	}
	dur := float64(bytes) / d.bytesPerCycle
	d.nextFree = start + dur
	stall := int64(start - now)
	d.stats.StallCycles += stall
	done := int64(start+dur) + d.latency
	if done <= d.q.Now() {
		done = d.q.Now() + 1
	}
	return done
}

// Fetch implements cache.Backend: a line read.
func (d *DRAM) Fetch(addr uint64, done clock.Event) bool {
	d.stats.Reads++
	d.stats.BytesRead += int64(d.lineBytes)
	d.q.At(d.occupy(d.lineBytes), done.Fn, done.Arg)
	return true
}

// Write implements cache.Backend: a line of write traffic, marked at
// the cycle it leaves the pipe.
func (d *DRAM) Write(addr uint64) {
	d.stats.Writes++
	d.stats.BytesWrit += int64(d.lineBytes)
	d.q.Mark(d.occupy(d.lineBytes))
}

// Transfer moves bytes in bulk (context save/restore, migrated page
// copies into GPU memory); done runs at completion.
func (d *DRAM) Transfer(bytes int, done clock.Event) {
	if bytes <= 0 {
		d.q.After(1, done.Fn, done.Arg)
		return
	}
	d.stats.BytesWrit += int64(bytes)
	d.q.At(d.occupy(bytes), done.Fn, done.Arg)
}
