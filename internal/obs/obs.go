// Package obs is the simulator-wide observability layer: a
// zero-allocation event tracer with per-SM ring buffers, a metrics
// registry of gauges and histograms, and the stall-reason
// taxonomy of the SM issue stage.
//
// Design rules, enforced by tests:
//
//   - The tracer never schedules clock events or otherwise feeds back
//     into the simulation: attaching a tracer must leave the simulated
//     cycle count bit-identical. Components emit only from inside
//     callbacks that already exist.
//   - The disabled path costs one branch: components hold a *Tracer
//     pointer and guard emissions with a nil test; every instrument
//     method is additionally nil-receiver safe.
//   - The enabled hot path does not allocate: events go into
//     preallocated rings, histograms into fixed bucket arrays.
package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Kind identifies one typed trace event.
type Kind uint8

// The event taxonomy. Point events use the instant phase in the Chrome
// export; *Start/*End pairs become async spans.
const (
	// Pipeline events (high volume).
	KFetch     Kind = iota // warp fetched an instruction; A=trace idx, B=block id
	KIssue                 // instruction issued; A=trace idx, B=block id
	KStall                 // issue blocked; A=StallReason, B=trace idx
	KLastCheck             // last TLB check fired; A=trace idx, B=faulted (0/1)
	KCommit                // instruction committed; A=trace idx, B=block id

	// Fault lifecycle.
	KSquash         // faulting instruction squashed; A=trace idx, B=block id
	KReplayFetch    // squashed instruction re-fetched; A=trace idx, B=block id
	KReplayCommit   // replayed instruction committed; A=trace idx, B=block id
	KFaultRaised    // SM raised a page fault; A=page VA, B=fault kind
	KFaultResolved  // a warp's fault resolved; A=outstanding faults left
	KRegionQueued   // fault unit queued a handling region; A=region, B=queue pos
	KRegionResolved // handling region resolved; A=region, B=service latency
	KWalkFault      // page walk detected a fault; A=page VA, B=fault kind

	// Block switching (use case 1).
	KSwitchOut    // block chosen for switch-out; A=block id, B=queue pos
	KSaveStart    // context save began; A=block id, B=bytes
	KSaveEnd      // context save done, block off-chip; A=block id
	KRestoreStart // context restore began; A=block id, B=bytes
	KRestoreEnd   // block active again; A=block id

	// Fault service.
	KMigrateStart // CPU fault service accepted a region; A=region, B=queue wait
	KMigrateEnd   // CPU fault service mapped the region; A=region
	KLocalStart   // GPU-local handler accepted a region; A=region, B=slot wait
	KLocalEnd     // GPU-local handler mapped the region; A=region

	// Device exceptions.
	KExcep // exception record delivered to the host; A=excep kind, B=block id

	NumKinds
)

var kindNames = [NumKinds]string{
	KFetch:          "fetch",
	KIssue:          "issue",
	KStall:          "stall",
	KLastCheck:      "last-check",
	KCommit:         "commit",
	KSquash:         "squash",
	KReplayFetch:    "replay-fetch",
	KReplayCommit:   "replay-commit",
	KFaultRaised:    "fault-raised",
	KFaultResolved:  "fault-resolved",
	KRegionQueued:   "region-queued",
	KRegionResolved: "region-resolved",
	KWalkFault:      "walk-fault",
	KSwitchOut:      "switch-out",
	KSaveStart:      "save-start",
	KSaveEnd:        "save-end",
	KRestoreStart:   "restore-start",
	KRestoreEnd:     "restore-end",
	KMigrateStart:   "migrate-start",
	KMigrateEnd:     "migrate-end",
	KLocalStart:     "local-start",
	KLocalEnd:       "local-end",
	KExcep:          "excep",
}

// String returns the kebab-case event name used by the exports and the
// trace filter.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// AllKinds is the filter mask selecting every event kind.
const AllKinds = uint64(1)<<NumKinds - 1

func mask(kinds ...Kind) uint64 {
	var m uint64
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// filterGroups are the named kind sets accepted by ParseFilter, in
// addition to individual kind names.
var filterGroups = map[string]uint64{
	"all":      AllKinds,
	"pipeline": mask(KFetch, KIssue, KStall, KLastCheck, KCommit),
	"stall":    mask(KStall),
	"fault": mask(KSquash, KFaultRaised, KFaultResolved,
		KRegionQueued, KRegionResolved, KWalkFault),
	"replay":  mask(KReplayFetch, KReplayCommit),
	"switch":  mask(KSwitchOut, KSaveStart, KSaveEnd, KRestoreStart, KRestoreEnd),
	"migrate": mask(KMigrateStart, KMigrateEnd),
	"local":   mask(KLocalStart, KLocalEnd),
	"excep":   mask(KExcep),
}

// ParseFilter turns a comma-separated list of group names (pipeline,
// stall, fault, replay, switch, migrate, local, all) and/or individual
// event names (e.g. "commit") into a kind mask. An empty string selects
// everything.
func ParseFilter(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return AllKinds, nil
	}
	var m uint64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if g, ok := filterGroups[tok]; ok {
			m |= g
			continue
		}
		found := false
		for k := Kind(0); k < NumKinds; k++ {
			if kindNames[k] == tok {
				m |= 1 << k
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("obs: unknown trace filter %q", tok)
		}
	}
	return m, nil
}

// Event is one trace record. SM is -1 for system-level components (the
// fault unit, fill unit, CPU fault service and local handler). Warp is
// a stable warp identity (blockID*warpsPerBlock + warp index) for
// SM-side events, 0 otherwise. A and B are kind-specific payloads (see
// the Kind constants).
type Event struct {
	Cycle int64
	Seq   uint64 // global emission order, for deterministic merges
	A, B  uint64
	Warp  int32
	SM    int16
	Kind  Kind
}

// String renders one event for stall reports and debugging.
func (e Event) String() string {
	where := "sys"
	if e.SM >= 0 {
		where = fmt.Sprintf("sm%d/w%d", e.SM, e.Warp)
	}
	return fmt.Sprintf("cycle %8d %-8s %-15s a=%#x b=%#x", e.Cycle, where, e.Kind, e.A, e.B)
}

// ring is one fixed-capacity event buffer; n counts events ever written,
// so the oldest retained event is at n-len(buf) when n > len(buf).
type ring struct {
	buf []Event
	n   uint64
}

// Options configures a Tracer.
type Options struct {
	// Filter is the enabled-kind mask (see ParseFilter); 0 means all.
	Filter uint64
	// RingSize is the per-ring event capacity (default 1<<15).
	RingSize int
}

// DefaultRingSize is the per-SM ring capacity when Options.RingSize is
// zero.
const DefaultRingSize = 1 << 15

// Tracer collects events into per-SM ring buffers plus one system ring.
// It is single-threaded, like the simulation that feeds it. The zero
// tracer (or a nil one) drops everything.
type Tracer struct {
	filter uint64
	now    func() int64
	seq    uint64
	// rings[0] is the system ring (SM -1); rings[i+1] belongs to SM i.
	rings    []ring
	ringSize int
}

// New builds a tracer. Call Bind before emitting (the simulator's
// AttachTracer does).
func New(o Options) *Tracer {
	if o.Filter == 0 {
		o.Filter = AllKinds
	}
	if o.RingSize <= 0 {
		o.RingSize = DefaultRingSize
	}
	return &Tracer{filter: o.Filter, ringSize: o.RingSize}
}

// Bind sizes the rings for numSMs SMs and installs the cycle source.
// Rebinding resets the rings.
func (t *Tracer) Bind(numSMs int, now func() int64) {
	t.now = now
	t.rings = make([]ring, numSMs+1)
	for i := range t.rings {
		t.rings[i].buf = make([]Event, t.ringSize)
		t.rings[i].n = 0
	}
	t.seq = 0
}

// Enabled reports whether the kind passes the tracer's filter; a nil
// tracer reports false. Components use it to skip payload computation.
//
//simlint:noalloc
func (t *Tracer) Enabled(k Kind) bool {
	return t != nil && t.filter&(1<<k) != 0
}

// Emit records one event. It is nil-receiver safe, filters by kind, and
// never allocates: the event overwrites the oldest slot of the target
// ring when full. sm is -1 for system components.
//
//simlint:noalloc
func (t *Tracer) Emit(sm int, k Kind, warp int32, a, b uint64) {
	if t == nil || t.filter&(1<<k) == 0 {
		return
	}
	ri := sm + 1
	if ri < 0 || ri >= len(t.rings) {
		if len(t.rings) == 0 {
			return // not bound
		}
		ri = 0
	}
	r := &t.rings[ri]
	t.seq++
	r.buf[r.n%uint64(len(r.buf))] = Event{
		Cycle: t.now(),
		Seq:   t.seq,
		A:     a,
		B:     b,
		Warp:  warp,
		SM:    int16(sm),
		Kind:  k,
	}
	r.n++
}

// Dropped returns how many events were overwritten across all rings.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var d uint64
	for i := range t.rings {
		r := &t.rings[i]
		if c := uint64(len(r.buf)); r.n > c {
			d += r.n - c
		}
	}
	return d
}

// Events returns every retained event merged across rings in emission
// order. It allocates (export path, not the hot path).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var total int
	for i := range t.rings {
		r := &t.rings[i]
		n := r.n
		if c := uint64(len(r.buf)); n > c {
			n = c
		}
		total += int(n)
	}
	out := make([]Event, 0, total)
	for i := range t.rings {
		r := &t.rings[i]
		n := r.n
		if c := uint64(len(r.buf)); n > c {
			n = c
		}
		for j := uint64(0); j < n; j++ {
			out = append(out, r.buf[(r.n-n+j)%uint64(len(r.buf))])
		}
	}
	sortEventsBySeq(out)
	return out
}

// Tail returns the newest n events across all rings, oldest first,
// without merging entire rings: each ring contributes at most its
// newest n events (a superset of the global tail), and the merged
// candidates are cut down to n. Cost is O(rings*n log(rings*n))
// regardless of ring fill, so the live-telemetry publish path can
// afford it every interval. Result equals the last n of Events().
func (t *Tracer) Tail(n int) []Event {
	if t == nil || n <= 0 {
		return nil
	}
	out := make([]Event, 0, len(t.rings)*n)
	for i := range t.rings {
		r := &t.rings[i]
		have := r.n
		if c := uint64(len(r.buf)); have > c {
			have = c
		}
		take := uint64(n)
		if take > have {
			take = have
		}
		for j := uint64(0); j < take; j++ {
			out = append(out, r.buf[(r.n-take+j)%uint64(len(r.buf))])
		}
	}
	sortEventsBySeq(out)
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// sortEventsBySeq sorts by the global sequence number (a total order).
func sortEventsBySeq(ev []Event) {
	sort.Slice(ev, func(i, j int) bool { return ev[i].Seq < ev[j].Seq })
}
