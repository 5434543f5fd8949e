// Package ckpt is a minimal stand-in for the simulator's checkpoint
// writer (see cleanmod); here it backs the deliberate defect.
package ckpt

// Writer appends typed fields.
type Writer struct{ fields []int64 }

// I64 appends one field.
func (w *Writer) I64(v int64) { w.fields = append(w.fields, v) }
