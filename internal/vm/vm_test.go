package vm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageTableLookupUnmapped(t *testing.T) {
	pt, err := NewPageTable(4096)
	if err != nil {
		t.Fatal(err)
	}
	if e := pt.Lookup(0x123456); e.State != PageUnmapped {
		t.Errorf("unmapped lookup = %v", e)
	}
	if pt.MappedPages() != 0 {
		t.Errorf("MappedPages = %d, want 0", pt.MappedPages())
	}
}

func TestPageTableSetLookup(t *testing.T) {
	pt, _ := NewPageTable(4096)
	pt.Set(0x7f0000001000, PTE{State: PageGPU, PA: 0xabc000})
	e := pt.Lookup(0x7f0000001fff) // any offset within the page
	if e.State != PageGPU || e.PA != 0xabc000 {
		t.Errorf("lookup = %+v", e)
	}
	if pt.MappedPages() != 1 {
		t.Errorf("MappedPages = %d, want 1", pt.MappedPages())
	}
	// Neighbouring pages unaffected.
	if e := pt.Lookup(0x7f0000000000); e.State != PageUnmapped {
		t.Errorf("neighbour mapped: %+v", e)
	}
	// Unmap decrements the count.
	pt.Set(0x7f0000001000, PTE{})
	if pt.MappedPages() != 0 {
		t.Errorf("MappedPages after unmap = %d", pt.MappedPages())
	}
}

func TestPageTableRejectsBadPageSize(t *testing.T) {
	for _, s := range []int{0, -4096, 3000} {
		if _, err := NewPageTable(s); err == nil {
			t.Errorf("NewPageTable(%d) must fail", s)
		}
	}
}

func TestForRange(t *testing.T) {
	pt, _ := NewPageTable(4096)
	var pages []uint64
	pt.ForRange(4096+100, 8192, func(p uint64) { pages = append(pages, p) })
	// [4196, 12388) covers pages 4096, 8192, 12288.
	want := []uint64{4096, 8192, 12288}
	if len(pages) != len(want) {
		t.Fatalf("ForRange pages = %v, want %v", pages, want)
	}
	for i := range want {
		if pages[i] != want[i] {
			t.Errorf("page[%d] = %#x, want %#x", i, pages[i], want[i])
		}
	}
	pages = nil
	pt.ForRange(0, 0, func(p uint64) { pages = append(pages, p) })
	if len(pages) != 0 {
		t.Errorf("empty range visited %v", pages)
	}
}

// Property: a set of random mappings reads back exactly, against a map
// shadow.
func TestPageTableQuickConsistency(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pt, _ := NewPageTable(4096)
		shadow := make(map[uint64]PTE)
		for i := 0; i < 200; i++ {
			va := uint64(rng.Intn(1<<30)) &^ 4095
			e := PTE{State: PageState(rng.Intn(3)), PA: rng.Uint64(), Dirty: rng.Intn(2) == 0}
			pt.Set(va, e)
			shadow[va] = e
		}
		mapped := 0
		for va, e := range shadow {
			got := pt.Lookup(va)
			if got != e {
				return false
			}
			if e.State != PageUnmapped {
				mapped++
			}
		}
		return pt.MappedPages() == mapped
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPhysAllocatorBasic(t *testing.T) {
	a, err := NewPhysAllocator(0x1000, 16*4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if a.FreeFrames() != 16 {
		t.Errorf("FreeFrames = %d, want 16", a.FreeFrames())
	}
	f1, err := a.Alloc()
	if err != nil || f1 != 0x1000 {
		t.Errorf("first frame = %#x, err %v", f1, err)
	}
	f2, _ := a.Alloc()
	if f2 == f1 {
		t.Error("duplicate frame")
	}
	if a.Allocated() != 2 {
		t.Errorf("Allocated = %d", a.Allocated())
	}
	if err := a.Free(f1); err != nil {
		t.Fatal(err)
	}
	f3, _ := a.Alloc()
	if f3 != f1 {
		t.Errorf("freed frame not reused: got %#x want %#x", f3, f1)
	}
}

func TestPhysAllocatorExhaustion(t *testing.T) {
	a, _ := NewPhysAllocator(0, 2*4096, 4096)
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(); err == nil {
		t.Error("third alloc from 2-frame pool must fail")
	}
}

func TestPhysAllocatorFreeValidation(t *testing.T) {
	a, _ := NewPhysAllocator(0x10000, 4*4096, 4096)
	if err := a.Free(0x5000); err == nil {
		t.Error("free outside range must fail")
	}
	if err := a.Free(0x10001); err == nil {
		t.Error("unaligned free must fail")
	}
}

func TestPhysAllocatorPartition(t *testing.T) {
	a, _ := NewPhysAllocator(0, 64*4096, 4096)
	parts, err := a.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	seen := make(map[uint64]bool)
	for _, p := range parts {
		if p.FreeFrames() != 16 {
			t.Errorf("partition frames = %d, want 16", p.FreeFrames())
		}
		for {
			f, err := p.Alloc()
			if err != nil {
				break
			}
			if seen[f] {
				t.Fatalf("frame %#x handed out twice", f)
			}
			seen[f] = true
		}
	}
	if len(seen) != 64 {
		t.Errorf("total frames = %d, want 64", len(seen))
	}
	if _, err := a.Alloc(); err == nil {
		t.Error("parent must be empty after partition")
	}
}

// Property: alloc/free interleavings never hand out a frame twice and
// never exceed capacity.
func TestPhysAllocatorQuickNoDoubleAlloc(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const frames = 32
		a, _ := NewPhysAllocator(0, frames*4096, 4096)
		live := make(map[uint64]bool)
		for i := 0; i < 500; i++ {
			if rng.Intn(2) == 0 && len(live) < frames {
				f, err := a.Alloc()
				if err != nil {
					return false
				}
				if live[f] {
					return false // double allocation
				}
				live[f] = true
			} else if len(live) > 0 {
				for f := range live {
					if a.Free(f) != nil {
						return false
					}
					delete(live, f)
					break
				}
			}
			if a.Allocated() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func newTestAS(t *testing.T) *AddressSpace {
	t.Helper()
	as, err := NewAddressSpace(4096, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func TestClassifyDecisionTree(t *testing.T) {
	as := newTestAS(t)
	if err := as.AddRegion(Region{Name: "in", Base: 0x10000, Size: 0x10000, Kind: RegionCPUInit}); err != nil {
		t.Fatal(err)
	}
	if err := as.AddRegion(Region{Name: "out", Base: 0x30000, Size: 0x10000, Kind: RegionLazy}); err != nil {
		t.Fatal(err)
	}
	if err := as.AddRegion(Region{Name: "pre", Base: 0x50000, Size: 0x10000, Kind: RegionGPUInit}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		va   uint64
		want FaultKind
	}{
		{0x10000, FaultMigrate},   // CPU-dirty input
		{0x1ffff, FaultMigrate},   // last byte of input
		{0x30000, FaultAllocOnly}, // lazy output, first touch
		{0x50000, FaultNone},      // pre-placed in GPU
		{0x90000, FaultInvalid},   // outside all regions
	}
	for _, c := range cases {
		if got := as.Classify(c.va); got != c.want {
			t.Errorf("Classify(%#x) = %v, want %v", c.va, got, c.want)
		}
	}
}

func TestMapToGPUMigration(t *testing.T) {
	as := newTestAS(t)
	if err := as.AddRegion(Region{Name: "in", Base: 0x10000, Size: 0x2000, Kind: RegionCPUInit}); err != nil {
		t.Fatal(err)
	}
	cpuBefore := as.CPUPhys.Allocated()
	transferred, err := as.MapToGPU(0x10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !transferred {
		t.Error("migration of dirty CPU page must transfer data")
	}
	if as.Classify(0x10000) != FaultNone {
		t.Error("page must be GPU-resident after migration")
	}
	if as.CPUPhys.Allocated() != cpuBefore-1 {
		t.Error("CPU frame must be freed after migration")
	}
	// Second map is a no-op.
	transferred, err = as.MapToGPU(0x10000, nil)
	if err != nil || transferred {
		t.Errorf("re-map: transferred=%v err=%v", transferred, err)
	}
}

func TestMapToGPULazyAllocation(t *testing.T) {
	as := newTestAS(t)
	if err := as.AddRegion(Region{Name: "heap", Base: 0x40000, Size: 0x4000, Kind: RegionLazy}); err != nil {
		t.Fatal(err)
	}
	transferred, err := as.MapToGPU(0x40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if transferred {
		t.Error("lazy allocation must not transfer data")
	}
	if as.GPUTable.MappedPages() != 1 {
		t.Errorf("resident pages = %d, want 1", as.GPUTable.MappedPages())
	}
}

func TestMapToGPUWithPrivateAllocator(t *testing.T) {
	as := newTestAS(t)
	if err := as.AddRegion(Region{Name: "heap", Base: 0x40000, Size: 0x10000, Kind: RegionLazy}); err != nil {
		t.Fatal(err)
	}
	parts, err := as.GPUPhys.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapToGPU(0x40000, parts[2]); err != nil {
		t.Fatal(err)
	}
	if parts[2].Allocated() != 1 {
		t.Errorf("partition 2 allocated = %d, want 1", parts[2].Allocated())
	}
	pte := as.GPUTable.Lookup(0x40000)
	if !pte.Present() {
		t.Error("page not mapped")
	}
}

func TestMapToGPUInvalid(t *testing.T) {
	as := newTestAS(t)
	if _, err := as.MapToGPU(0xdead0000, nil); err == nil {
		t.Error("mapping an unregistered address must fail")
	}
}

func TestRegionOverlapRejected(t *testing.T) {
	as := newTestAS(t)
	if err := as.AddRegion(Region{Name: "a", Base: 0x1000, Size: 0x2000, Kind: RegionLazy}); err != nil {
		t.Fatal(err)
	}
	if err := as.AddRegion(Region{Name: "b", Base: 0x2000, Size: 0x2000, Kind: RegionLazy}); err == nil {
		t.Error("overlapping region must be rejected")
	}
	if err := as.AddRegion(Region{Name: "empty", Base: 0x9000, Size: 0, Kind: RegionLazy}); err == nil {
		t.Error("empty region must be rejected")
	}
}

func TestRegionGPUInitPreallocates(t *testing.T) {
	as := newTestAS(t)
	if err := as.AddRegion(Region{Name: "pre", Base: 0, Size: 8 * 4096, Kind: RegionGPUInit}); err != nil {
		t.Fatal(err)
	}
	if as.GPUPhys.Allocated() != 8 {
		t.Errorf("GPU frames = %d, want 8", as.GPUPhys.Allocated())
	}
	if as.GPUTable.MappedPages() != 8 {
		t.Errorf("resident = %d, want 8", as.GPUTable.MappedPages())
	}
}
