// Package comp is a checkpoint-complete component: every field is
// saved, so the suite must exit 0.
package comp

import "cleanmod/internal/ckpt"

// Counter is a fully covered Saver.
type Counter struct {
	ticks int64
	drops int64
}

// SaveState serializes both fields.
func (c *Counter) SaveState(w *ckpt.Writer) {
	w.I64(c.ticks)
	w.I64(c.drops)
}
