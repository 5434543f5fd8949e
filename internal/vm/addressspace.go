package vm

import "fmt"

// RegionKind selects the initial placement of a virtual memory region.
type RegionKind uint8

const (
	// RegionCPUInit regions hold input data written by the CPU before
	// launch: pages start CPU-resident and dirty, so a GPU touch
	// triggers a migration fault with a data transfer.
	RegionCPUInit RegionKind = iota
	// RegionLazy regions (kernel outputs, device heap) start unmapped:
	// a GPU touch triggers an allocation-only fault.
	RegionLazy
	// RegionGPUInit regions are pre-placed in GPU memory (explicit
	// transfer before launch): no faults.
	RegionGPUInit
	// RegionCPUClean regions are CPU-owned but never written (e.g.
	// zero-initialized output buffers): a GPU touch faults but only
	// needs allocation, not a data transfer (Figure 2's "pages not
	// dirty" case).
	RegionCPUClean
)

// String names the region kind.
func (k RegionKind) String() string {
	switch k {
	case RegionCPUInit:
		return "cpu-init"
	case RegionLazy:
		return "lazy"
	case RegionGPUInit:
		return "gpu-init"
	case RegionCPUClean:
		return "cpu-clean"
	}
	return fmt.Sprintf("RegionKind(%d)", uint8(k))
}

// Region is a named virtual address range registered with the address
// space.
type Region struct {
	Name string
	Base uint64
	Size uint64
	Kind RegionKind
}

// Contains reports whether va falls inside the region.
func (r *Region) Contains(va uint64) bool {
	return va >= r.Base && va < r.Base+r.Size
}

// FaultKind classifies a GPU access to a page.
type FaultKind uint8

const (
	// FaultNone: the page is GPU-resident, the access hits.
	FaultNone FaultKind = iota
	// FaultMigrate: the page is CPU-resident and dirty; resolving needs
	// allocation plus a data transfer over the interconnect.
	FaultMigrate
	// FaultAllocOnly: the page has no physical backing (or is a clean
	// CPU page); resolving only needs allocation and a page table
	// update — the class of faults use-case 2 handles on the GPU.
	FaultAllocOnly
	// FaultInvalid: the access is outside every registered region; the
	// kernel must be aborted.
	FaultInvalid
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultMigrate:
		return "migrate"
	case FaultAllocOnly:
		return "alloc-only"
	case FaultInvalid:
		return "invalid"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// AddressSpace is the unified CPU/GPU virtual address space of one
// process: the GPU page table the fill unit walks, the CPU-side page
// state, the physical allocators of both memories, and the registered
// regions.
type AddressSpace struct {
	GPUTable *PageTable
	CPUTable *PageTable
	GPUPhys  *PhysAllocator
	CPUPhys  *PhysAllocator

	regions []Region
	//simlint:ckptskip construction-time geometry, fixed for the life of the address space
	pageSize uint64
}

// NewAddressSpace builds an address space with the given page size and
// physical memory sizes in bytes.
func NewAddressSpace(pageSize int, gpuMemBytes, cpuMemBytes uint64) (*AddressSpace, error) {
	gpt, err := NewPageTable(pageSize)
	if err != nil {
		return nil, err
	}
	cpt, err := NewPageTable(pageSize)
	if err != nil {
		return nil, err
	}
	gphys, err := NewPhysAllocator(0, gpuMemBytes, pageSize)
	if err != nil {
		return nil, fmt.Errorf("vm: gpu allocator: %w", err)
	}
	cphys, err := NewPhysAllocator(0, cpuMemBytes, pageSize)
	if err != nil {
		return nil, fmt.Errorf("vm: cpu allocator: %w", err)
	}
	return &AddressSpace{
		GPUTable: gpt,
		CPUTable: cpt,
		GPUPhys:  gphys,
		CPUPhys:  cphys,
		pageSize: uint64(pageSize),
	}, nil
}

// PageSize returns the page size in bytes.
func (as *AddressSpace) PageSize() uint64 { return as.pageSize }

// AddRegion registers a region and installs its initial page state.
// Regions must not overlap.
func (as *AddressSpace) AddRegion(r Region) error {
	if r.Size == 0 {
		return fmt.Errorf("vm: empty region %q", r.Name)
	}
	for i := range as.regions {
		o := &as.regions[i]
		if r.Base < o.Base+o.Size && o.Base < r.Base+r.Size {
			return fmt.Errorf("vm: region %q overlaps %q", r.Name, o.Name)
		}
	}
	switch r.Kind {
	case RegionCPUInit:
		var err error
		as.CPUTable.ForRange(r.Base, int(r.Size), func(p uint64) {
			if err != nil {
				return
			}
			pa, e := as.CPUPhys.Alloc()
			if e != nil {
				err = e
				return
			}
			as.CPUTable.Set(p, PTE{State: PageCPU, PA: pa, Dirty: true})
		})
		if err != nil {
			return fmt.Errorf("vm: region %q: %w", r.Name, err)
		}
	case RegionGPUInit:
		var err error
		as.GPUTable.ForRange(r.Base, int(r.Size), func(p uint64) {
			if err != nil {
				return
			}
			pa, e := as.GPUPhys.Alloc()
			if e != nil {
				err = e
				return
			}
			as.GPUTable.Set(p, PTE{State: PageGPU, PA: pa})
		})
		if err != nil {
			return fmt.Errorf("vm: region %q: %w", r.Name, err)
		}
	case RegionCPUClean:
		var err error
		as.CPUTable.ForRange(r.Base, int(r.Size), func(p uint64) {
			if err != nil {
				return
			}
			pa, e := as.CPUPhys.Alloc()
			if e != nil {
				err = e
				return
			}
			as.CPUTable.Set(p, PTE{State: PageCPU, PA: pa, Dirty: false})
		})
		if err != nil {
			return fmt.Errorf("vm: region %q: %w", r.Name, err)
		}
	case RegionLazy:
		// Nothing to install: pages stay unmapped until first touch.
	default:
		return fmt.Errorf("vm: region %q has unknown kind %v", r.Name, r.Kind)
	}
	as.regions = append(as.regions, r)
	return nil
}

// RegionOf returns the region containing va, or nil.
func (as *AddressSpace) RegionOf(va uint64) *Region {
	for i := range as.regions {
		if as.regions[i].Contains(va) {
			return &as.regions[i]
		}
	}
	return nil
}

// Regions returns the registered regions.
func (as *AddressSpace) Regions() []Region { return as.regions }

// Classify determines what a GPU access to va needs, exactly the
// decision tree of the fault handler in Section 4.2: GPU-resident pages
// hit; CPU-owned dirty pages need migration; pages without physical
// memory (or clean CPU pages) only need allocation; accesses outside
// every region are invalid.
func (as *AddressSpace) Classify(va uint64) FaultKind {
	page := as.GPUTable.PageBase(va)
	if as.GPUTable.Lookup(page).Present() {
		return FaultNone
	}
	if as.RegionOf(va) == nil {
		return FaultInvalid
	}
	cpu := as.CPUTable.Lookup(page)
	if cpu.State == PageCPU && cpu.Dirty {
		return FaultMigrate
	}
	return FaultAllocOnly
}

// MapToGPU resolves a fault on the page containing va: it allocates a
// GPU frame (from alloc, or the shared GPU allocator when alloc is
// nil), unmaps any CPU-side entry, and installs the GPU mapping. It
// returns whether a data transfer was required (the page was dirty in
// CPU memory). Mapping an already-present page is a no-op.
func (as *AddressSpace) MapToGPU(va uint64, alloc *PhysAllocator) (transferred bool, err error) {
	page := as.GPUTable.PageBase(va)
	if as.GPUTable.Lookup(page).Present() {
		return false, nil
	}
	if as.RegionOf(va) == nil {
		return false, fmt.Errorf("vm: mapping invalid address %#x", va)
	}
	if alloc == nil {
		alloc = as.GPUPhys
	}
	pa, err := alloc.Alloc()
	if err != nil {
		return false, err
	}
	cpu := as.CPUTable.Lookup(page)
	if cpu.State == PageCPU {
		transferred = cpu.Dirty
		if e := as.CPUPhys.Free(cpu.PA); e != nil {
			return false, e
		}
		as.CPUTable.Set(page, PTE{})
	}
	as.GPUTable.Set(page, PTE{State: PageGPU, PA: pa})
	return transferred, nil
}
