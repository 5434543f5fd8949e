package dram

import "gpues/internal/ckpt"

// SaveState serializes the DRAM model: the bandwidth pipe position and
// the access statistics.
func (d *DRAM) SaveState(w *ckpt.Writer) {
	w.F64(d.nextFree)
	w.I64(d.stats.Reads)
	w.I64(d.stats.Writes)
	w.I64(d.stats.BytesRead)
	w.I64(d.stats.BytesWrit)
	w.I64(d.stats.StallCycles)
}
