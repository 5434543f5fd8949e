// Package ckpt is a minimal stand-in for the simulator's checkpoint
// writer: ckptcomplete matches Saver methods by the parameter
// type's "internal/ckpt" package suffix, so the fixture is
// self-contained.
package ckpt

// Writer appends typed fields.
type Writer struct{ fields []int64 }

// I64 appends one field.
func (w *Writer) I64(v int64) { w.fields = append(w.fields, v) }
