// Package vm implements the virtual memory substrate of the modelled
// system: a radix page table, physical memory allocators for the CPU and
// GPU memories, and fault classification (migration vs. lazy allocation
// vs. invalid access). The system-level synchronization that the
// paper's concurrent memory management relies on (Szymanski's
// algorithm, Section 4.2) is not executed; the model bounds concurrent
// GPU-local handlers by a count instead (config.LocalHandlerConfig).
package vm

import "fmt"

// PageState describes where a virtual page currently lives.
type PageState uint8

const (
	// PageUnmapped pages have no physical backing anywhere. A GPU access
	// is a first-touch fault that only needs allocation (lazy
	// allocation).
	PageUnmapped PageState = iota
	// PageCPU pages are resident in CPU memory; a GPU access requires a
	// migration (allocation + data transfer if dirty).
	PageCPU
	// PageGPU pages are resident in GPU memory; accesses hit.
	PageGPU
)

// String names the state.
func (s PageState) String() string {
	switch s {
	case PageUnmapped:
		return "unmapped"
	case PageCPU:
		return "cpu"
	case PageGPU:
		return "gpu"
	}
	return fmt.Sprintf("PageState(%d)", uint8(s))
}

// PTE is a page table entry.
type PTE struct {
	State PageState
	// PA is the physical frame address in the memory named by State.
	PA uint64
	// Dirty marks CPU pages whose contents must be transferred on
	// migration. Clean CPU pages (and unmapped pages) only need
	// allocation.
	Dirty bool
}

// Present reports whether a GPU access to the page hits (no fault).
func (p PTE) Present() bool { return p.State == PageGPU }

// Page table geometry: 4 levels of 9 bits over 4 KB pages covers a
// 48-bit virtual address space, mirroring x86-64-style tables that GPU
// fill units walk.
const (
	levelBits = 9
	numLevels = 4
	fanout    = 1 << levelBits
)

type ptNode struct {
	children [fanout]*ptNode
	entries  []PTE // leaf level only
}

// PageTable is a radix page table over fixed-size pages. The zero value
// is not usable; call NewPageTable.
type PageTable struct {
	root      ptNode
	pageBits  uint
	pageSize  uint64
	numMapped int
}

// NewPageTable returns an empty table for the given page size (a power
// of two).
func NewPageTable(pageSize int) (*PageTable, error) {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("vm: page size %d not a positive power of two", pageSize)
	}
	bits := uint(0)
	for 1<<bits < pageSize {
		bits++
	}
	return &PageTable{pageBits: bits, pageSize: uint64(pageSize)}, nil
}

// PageSize returns the page size in bytes.
func (pt *PageTable) PageSize() uint64 { return pt.pageSize }

// PageBase returns the page-aligned base of va.
func (pt *PageTable) PageBase(va uint64) uint64 { return va &^ (pt.pageSize - 1) }

// MappedPages returns the number of entries not in the unmapped state.
func (pt *PageTable) MappedPages() int { return pt.numMapped }

func (pt *PageTable) indices(va uint64) [numLevels]int {
	vpn := va >> pt.pageBits
	var idx [numLevels]int
	for l := numLevels - 1; l >= 0; l-- {
		idx[l] = int(vpn & (fanout - 1))
		vpn >>= levelBits
	}
	return idx
}

// Lookup walks the table and returns the entry for va. Missing paths
// return a zero (unmapped) entry. The walk visits one node per level,
// exactly what the fill unit's walkers model with their 500-cycle
// latency.
func (pt *PageTable) Lookup(va uint64) PTE {
	idx := pt.indices(va)
	n := &pt.root
	for l := 0; l < numLevels-1; l++ {
		n = n.children[idx[l]]
		if n == nil {
			return PTE{}
		}
	}
	if n.entries == nil {
		return PTE{}
	}
	return n.entries[idx[numLevels-1]]
}

// Set installs the entry for va, creating intermediate nodes as needed.
func (pt *PageTable) Set(va uint64, e PTE) {
	idx := pt.indices(va)
	n := &pt.root
	for l := 0; l < numLevels-1; l++ {
		c := n.children[idx[l]]
		if c == nil {
			c = &ptNode{}
			n.children[idx[l]] = c
		}
		n = c
	}
	if n.entries == nil {
		n.entries = make([]PTE, fanout)
	}
	old := n.entries[idx[numLevels-1]]
	if old.State == PageUnmapped && e.State != PageUnmapped {
		pt.numMapped++
	} else if old.State != PageUnmapped && e.State == PageUnmapped {
		pt.numMapped--
	}
	n.entries[idx[numLevels-1]] = e
}

// ForRange calls fn for each page base in [va, va+n), in ascending
// order. fn receives the page base address.
func (pt *PageTable) ForRange(va uint64, n int, fn func(pageVA uint64)) {
	if n <= 0 {
		return
	}
	first := pt.PageBase(va)
	last := pt.PageBase(va + uint64(n) - 1)
	for p := first; ; p += pt.pageSize {
		fn(p)
		if p == last {
			break
		}
	}
}
