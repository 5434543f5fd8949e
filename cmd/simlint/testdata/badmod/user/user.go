// Package user imports the defective comp package but has no finding
// of its own: simlint run on ./user alone must exit 0, because an
// import is type-checked, not reported.
package user

import "badmod/comp"

// Ticks wraps a Counter.
type Ticks struct{ c comp.Counter }

// Counter returns the wrapped counter.
func (t *Ticks) Counter() *comp.Counter { return &t.c }
