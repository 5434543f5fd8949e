// Package comp carries the deliberate defect: a Saver field SaveState
// never serializes. The suite must exit nonzero on it — this fixture
// is the CI negative gate proving the analyzer still bites.
package comp

import "badmod/internal/ckpt"

// Counter has one field its SaveState forgot.
type Counter struct {
	ticks     int64
	forgotten int64
}

// SaveState serializes only ticks; forgotten is the injected gap.
func (c *Counter) SaveState(w *ckpt.Writer) {
	w.I64(c.ticks)
}
