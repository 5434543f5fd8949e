package host

import (
	"gpues/internal/ckpt"
	"gpues/internal/clock"
	"gpues/internal/excep"
)

// DefaultExcepPollEvery is the host's exception-flag polling period in
// cycles when the configuration does not choose one. It models the
// granularity at which the driver inspects the host-mapped exception
// flag between API calls.
const DefaultExcepPollEvery = 1024

// ExcepBoard is the host-mapped exception flag plus the record area
// behind it: SMs post device-raised exception records (sm.ExcepSink),
// and the driver observes them at its next poll boundary — the first
// multiple of the polling period after the first record posted. The
// poll boundary is a pure function of the first post cycle, so the
// cycle a run terminates at is deterministic and seed-stable.
type ExcepBoard struct {
	//simlint:ckptskip wiring to the shared event queue, which checkpoints itself as the clock section
	q *clock.Queue
	//simlint:ckptskip construction-time polling period, fixed for the life of the board
	pollEvery int64

	// firstPosted is the cycle of the first posted record (-1 when the
	// board is clean); records accumulate in post order.
	firstPosted int64
	records     []*excep.Record
}

// NewExcepBoard builds a board polled every pollEvery cycles
// (0 or negative selects DefaultExcepPollEvery).
func NewExcepBoard(q *clock.Queue, pollEvery int64) *ExcepBoard {
	if pollEvery <= 0 {
		pollEvery = DefaultExcepPollEvery
	}
	return &ExcepBoard{q: q, pollEvery: pollEvery, firstPosted: -1}
}

// PostExcep implements sm.ExcepSink: it latches the record and, on the
// first post, marks the poll boundary on the clock so an
// otherwise-quiescent simulation still advances to the cycle at which
// the host observes the flag.
func (b *ExcepBoard) PostExcep(now int64, r *excep.Record) {
	if b.firstPosted < 0 {
		b.firstPosted = now
		b.q.Mark(b.Boundary())
	}
	b.records = append(b.records, r)
}

// Boundary returns the cycle at which the host will observe the posted
// records, or -1 when the board is clean.
func (b *ExcepBoard) Boundary() int64 {
	if b.firstPosted < 0 {
		return -1
	}
	return (b.firstPosted/b.pollEvery + 1) * b.pollEvery
}

// Pending returns the number of posted, not-yet-observed records.
func (b *ExcepBoard) Pending() int { return len(b.records) }

// Poll is the driver's periodic flag check: it returns the structured
// exception error once the clock has reached the poll boundary, nil
// before that (or when the board is clean).
func (b *ExcepBoard) Poll(now int64) *excep.Error {
	if len(b.records) == 0 || now < b.Boundary() {
		return nil
	}
	return &excep.Error{Cycle: now, Records: b.records}
}

// Drain is the launch-completion API call: any posted record is
// observed immediately, poll boundary or not.
func (b *ExcepBoard) Drain(now int64) *excep.Error {
	if len(b.records) == 0 {
		return nil
	}
	return &excep.Error{Cycle: now, Records: b.records}
}

// SaveState serializes the board: the first-post cycle and the full
// record contents (records are plain data, written verbatim).
func (b *ExcepBoard) SaveState(w *ckpt.Writer) {
	w.I64(b.firstPosted)
	w.Int(len(b.records))
	for _, r := range b.records {
		w.U64(uint64(r.Kind))
		w.U64(uint64(uint32(r.Block)))
		w.U64(uint64(uint32(r.Warp)))
		w.U64(uint64(uint32(r.Lane)))
		w.U64(uint64(uint32(r.PC)))
		w.String(r.Mnemonic)
		w.U64(r.Addr)
		w.String(r.Detail)
		w.Int(len(r.Frames))
		for _, f := range r.Frames {
			w.U64(uint64(uint32(f.PC)))
			w.U64(uint64(uint32(f.RPC)))
			w.U32(f.Mask)
		}
	}
}
