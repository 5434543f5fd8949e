package host

import "gpues/internal/ckpt"

// SaveState serializes the dispatcher's grid progress and the flips
// injected into the blocks handed out.
func (d *Dispatcher) SaveState(w *ckpt.Writer) {
	w.Int(d.total)
	w.Int(d.next)
	w.Int(d.done)
	w.I64(d.flips)
}

// SaveState serializes the CPU fault service: the handler's next-free
// cycle and the service statistics. In-flight service completions are
// scheduled events, rebuilt by replay.
func (s *FaultService) SaveState(w *ckpt.Writer) {
	w.I64(s.cpuFree)
	w.I64(s.stats.Served)
	w.I64(s.stats.Migrations)
	w.I64(s.stats.AllocOnly)
	w.I64(s.stats.PagesMapped)
	w.I64(s.stats.QueueCycles)
}
