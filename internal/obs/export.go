package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace_event export --------------------------------------------

// chromeEvent is one record of the Chrome trace_event JSON format
// (loadable in Perfetto / chrome://tracing). Field order is fixed, so
// the export is byte-deterministic for a deterministic event stream.
type chromeEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Cat  string      `json:"cat,omitempty"`
	TS   int64       `json:"ts"`
	PID  int         `json:"pid"`
	TID  int32       `json:"tid"`
	ID   string      `json:"id,omitempty"`
	S    string      `json:"s,omitempty"`
	Args *chromeArgs `json:"args,omitempty"`
}

type chromeArgs struct {
	Name string `json:"name,omitempty"`
	A    string `json:"a,omitempty"`
	B    string `json:"b,omitempty"`
}

// spanCat maps a span-start kind to its async category; the matching
// end kind is start+1 by construction.
var spanCat = map[Kind]string{
	KSaveStart:    "save",
	KRestoreStart: "restore",
	KMigrateStart: "migrate",
	KLocalStart:   "local",
}

var spanEndCat = map[Kind]string{
	KSaveEnd:    "save",
	KRestoreEnd: "restore",
	KMigrateEnd: "migrate",
	KLocalEnd:   "local",
}

// WriteChrome writes the retained events as Chrome trace_event JSON:
// one process per SM plus a "system" process for the fault unit, fill
// unit, CPU fault service and local handler; warp identity as the
// thread id; the simulated cycle as the timestamp (1 "us" = 1 cycle).
// Point events are instants; save/restore/migrate/local pairs are async
// spans keyed by their block or region id.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	events := t.Events()
	sysPID := len(t.rings) - 1 // SMs are PIDs 0..n-1; the system row follows

	out := make([]chromeEvent, 0, len(events)+len(t.rings))
	for i := 0; i < len(t.rings); i++ {
		name := "system"
		pid := sysPID
		if i > 0 {
			name = fmt.Sprintf("SM%d", i-1)
			pid = i - 1
		}
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: &chromeArgs{Name: name},
		})
	}
	for _, e := range events {
		pid := sysPID
		if e.SM >= 0 {
			pid = int(e.SM)
		}
		ce := chromeEvent{
			Name: e.Kind.String(),
			TS:   e.Cycle,
			PID:  pid,
			TID:  e.Warp,
			Args: &chromeArgs{A: fmt.Sprintf("%#x", e.A), B: fmt.Sprintf("%#x", e.B)},
		}
		switch {
		case spanCat[e.Kind] != "":
			ce.Ph = "b"
			ce.Cat = spanCat[e.Kind]
			ce.ID = spanID(ce.Cat, pid, e.A)
		case spanEndCat[e.Kind] != "":
			ce.Ph = "e"
			ce.Cat = spanEndCat[e.Kind]
			ce.ID = spanID(ce.Cat, pid, e.A)
		default:
			ce.Ph = "i"
			ce.S = "t"
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{out})
}

// spanID builds the async-span correlation id: category plus emitting
// process plus the block/region id, so concurrent spans never collide.
func spanID(cat string, pid int, a uint64) string {
	return fmt.Sprintf("%s:%d:%#x", cat, pid, a)
}
