// Package registry lists every simlint analyzer, in the order drivers
// run and document them.
package registry

import (
	"gpues/internal/analysis"
	"gpues/internal/analysis/ckptcomplete"
	"gpues/internal/analysis/determinism"
	"gpues/internal/analysis/directive"
	"gpues/internal/analysis/enumswitch"
	"gpues/internal/analysis/noalloc"
	"gpues/internal/analysis/poolsafe"
)

// All returns the full analyzer suite.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		poolsafe.Analyzer,
		noalloc.Analyzer,
		enumswitch.Analyzer,
		directive.Analyzer,
		ckptcomplete.Analyzer,
	}
}
