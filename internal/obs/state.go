package obs

import "gpues/internal/ckpt"

// SaveState serializes the registry: the current gauge readings and
// histogram contents.
func (r *Registry) SaveState(w *ckpt.Writer) {
	w.Int(len(r.gauges))
	for _, n := range sortedNames(r.gauges) {
		w.String(n)
		w.I64(r.gauges[n]())
	}
	w.Int(len(r.hists))
	for _, n := range sortedNames(r.hists) {
		h := r.hists[n]
		w.String(n)
		w.I64(h.count)
		w.I64(h.sum)
		w.I64(h.min)
		w.I64(h.max)
		for _, b := range h.buckets {
			w.I64(b)
		}
	}
}
