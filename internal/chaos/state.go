package chaos

import "gpues/internal/ckpt"

// SaveState serializes the plan's injection progress: budget counters,
// event-log length and fingerprint, and the injected-page count. The
// RNG stream position is implied by the counters — replay re-draws the
// same sequence — so the counters alone pin it for the digest.
func (p *Plan) SaveState(w *ckpt.Writer) {
	w.I64(p.cfg.Seed)
	w.Int(p.walkFaults)
	w.Int(p.issueStalls)
	w.Int(p.forcedSwitches)
	w.Int(len(p.injectedPages))
	w.Int(len(p.events))
	w.U64(p.Fingerprint())
}
