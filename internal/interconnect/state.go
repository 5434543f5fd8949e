package interconnect

import "gpues/internal/ckpt"

// SaveState serializes the link: per-channel next-free cycles and the
// transfer statistics.
func (l *Link) SaveState(w *ckpt.Writer) {
	w.Int(len(l.channels))
	for _, c := range l.channels {
		w.I64(c)
	}
	w.I64(l.stats.Transfers)
	w.I64(l.stats.BusyCycles)
	w.I64(l.stats.StallCycles)
}
