package cc

import "gpues/internal/ckpt"

// Deep8 first touches far 8 calls below SaveState: the walk reaches
// depth maxDepth, so far is covered.
type Deep8 struct {
	far int64
}

func (d *Deep8) SaveState(w *ckpt.Writer) { d.d1(w) }

func (d *Deep8) d1(w *ckpt.Writer) { d.d2(w) }
func (d *Deep8) d2(w *ckpt.Writer) { d.d3(w) }
func (d *Deep8) d3(w *ckpt.Writer) { d.d4(w) }
func (d *Deep8) d4(w *ckpt.Writer) { d.d5(w) }
func (d *Deep8) d5(w *ckpt.Writer) { d.d6(w) }
func (d *Deep8) d6(w *ckpt.Writer) { d.d7(w) }
func (d *Deep8) d7(w *ckpt.Writer) { d.d8(w) }
func (d *Deep8) d8(w *ckpt.Writer) { w.I64(d.far) }

// Deep9 first touches far 9 calls below SaveState, one past maxDepth:
// the walk stops short of it and the field is reported.
type Deep9 struct {
	far int64 // want "field Deep9.far is not covered by SaveState"
}

func (d *Deep9) SaveState(w *ckpt.Writer) { d.d1(w) }

func (d *Deep9) d1(w *ckpt.Writer) { d.d2(w) }
func (d *Deep9) d2(w *ckpt.Writer) { d.d3(w) }
func (d *Deep9) d3(w *ckpt.Writer) { d.d4(w) }
func (d *Deep9) d4(w *ckpt.Writer) { d.d5(w) }
func (d *Deep9) d5(w *ckpt.Writer) { d.d6(w) }
func (d *Deep9) d6(w *ckpt.Writer) { d.d7(w) }
func (d *Deep9) d7(w *ckpt.Writer) { d.d8(w) }
func (d *Deep9) d8(w *ckpt.Writer) { d.d9(w) }
func (d *Deep9) d9(w *ckpt.Writer) { w.I64(d.far) }

// Mutual saves its fields through two helpers that call each other:
// the walk must terminate and still cover both fields.
type Mutual struct {
	even int64
	odd  int64
}

func (m *Mutual) SaveState(w *ckpt.Writer) { m.saveEven(w, 2) }

func (m *Mutual) saveEven(w *ckpt.Writer, n int) {
	w.I64(m.even)
	if n > 0 {
		m.saveOdd(w, n-1)
	}
}

func (m *Mutual) saveOdd(w *ckpt.Writer, n int) {
	w.I64(m.odd)
	if n > 0 {
		m.saveEven(w, n-1)
	}
}
