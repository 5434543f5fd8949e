package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by benchmark code
// around the call. Parent is the enclosing span's ID (0 at the root);
// Req groups every span of one job or submission.
type span struct {
	ID, Parent int
	Name, Req  string
	Start, End time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes run the same code with tracing
// off. Spans are recorded from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the time since the tracer's epoch.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// begin opens a span and returns its ID (0 when t is nil).
func (t *tracer) begin(name, req string, parent int) int {
	return t.add(name, req, parent, t.now(), -1)
}

// add records a span with the given bounds; end -1 leaves it open.
func (t *tracer) add(name, req string, parent int, start, end time.Duration) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = t.now()
}

// closed returns a copy of every closed span, in ID order.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may nest or overlap one another;
// covered time is the union of the child intervals clipped to the
// parent.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if cur < 0 || lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		out[s.ID] = s.dur() - covered
	}
	return out
}

// chromeEvent is one Chrome trace_event "complete" record; timestamps
// and durations are in microseconds of host time.
type chromeEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	TS   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req,omitempty"`
}

// writeChrome writes spans as Chrome trace_event JSON, loadable in
// Perfetto or chrome://tracing, the format internal/obs exports for
// simulated time. Each root span and its descendants share one track.
func writeChrome(w io.Writer, spans []span) error {
	root := make(map[int]int, len(spans))
	for _, s := range spans {
		if r, ok := root[s.Parent]; ok {
			root[s.ID] = r
		} else {
			root[s.ID] = s.ID
		}
	}
	evs := make([]chromeEvent, len(spans))
	for i, s := range spans {
		evs[i] = chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: root[s.ID],
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: chromeArgs{ID: s.ID, Parent: s.Parent, Req: s.Req},
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{evs})
}
