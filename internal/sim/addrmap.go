package sim

import (
	"sort"

	"gpues/internal/vm"
)

// regionChecker builds the emulator's address-map predicate from the
// launch's region list: it reports whether [lo, hi] lies inside one
// region, binary-searching a base-sorted table, with a one-entry cache
// for the common run of same-region accesses. The emulator asks once
// per warp instruction, with the warp's lowest and highest address.
// Global accesses outside every region then raise a device
// illegal-address exception during emulation — the functional
// equivalent of an MMU fault on an unmapped VA — instead of aborting
// the timing run from the host side.
func regionChecker(regs []vm.Region) func(lo, hi uint64) bool {
	sorted := make([]vm.Region, len(regs))
	copy(sorted, regs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Base < sorted[j].Base })
	last := -1
	return func(lo, hi uint64) bool {
		if last >= 0 && sorted[last].Contains(lo) && sorted[last].Contains(hi) {
			return true
		}
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Base > lo }) - 1
		if i >= 0 && sorted[i].Contains(lo) && sorted[i].Contains(hi) {
			last = i
			return true
		}
		return false
	}
}
