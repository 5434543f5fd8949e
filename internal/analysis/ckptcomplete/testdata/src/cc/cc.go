// Package cc is the ckptcomplete corpus: Saver types with complete,
// incomplete and exempted field coverage.
package cc

import "gpues/internal/ckpt"

// Good covers every field, one of them through a helper method — the
// proof must follow the call.
type Good struct {
	a int64
	b uint64
}

func (g *Good) SaveState(w *ckpt.Writer) {
	w.I64(g.a)
	g.saveRest(w)
}

func (g *Good) saveRest(w *ckpt.Writer) {
	w.U64(g.b)
}

// Missing has a field SaveState never touches: the injected defect the
// replay audit could not see.
type Missing struct {
	kept    int64
	dropped int64 // want "field Missing.dropped is not covered by SaveState"
}

func (m *Missing) SaveState(w *ckpt.Writer) {
	w.I64(m.kept)
}

// Skipped exempts its uncovered field with a reasoned directive; no
// diagnostic may fire (the no-false-positive case).
type Skipped struct {
	saved int64
	//simlint:ckptskip wiring fixed at construction; equal in every run of one configuration
	wiring func()
}

func (s *Skipped) SaveState(w *ckpt.Writer) {
	w.I64(s.saved)
}

// NoReason carries a bare ckptskip: the exemption must say why.
type NoReason struct {
	saved int64
	//simlint:ckptskip
	bare int64 // want "//simlint:ckptskip needs a reason"
}

func (n *NoReason) SaveState(w *ckpt.Writer) {
	w.I64(n.saved)
}

// NotASaver has uncovered fields and a SaveState that does not take a
// *ckpt.Writer; the analyzer only governs ckpt.Saver implementations.
type NotASaver struct {
	anything int64
}

func (n *NotASaver) SaveState(buf []byte) {}
