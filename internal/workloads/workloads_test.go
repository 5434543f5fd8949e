package workloads

import (
	"testing"

	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/sim"
	"gpues/internal/vm"
)

func TestRegistryComplete(t *testing.T) {
	parboil := Names("parboil")
	want := []string{"bfs", "cutcp", "histo", "lbm", "mri-gridding", "mri-q",
		"sad", "sgemm", "spmv", "stencil", "tpacf"}
	if len(parboil) != len(want) {
		t.Fatalf("parboil suite = %v, want %v", parboil, want)
	}
	for i := range want {
		if parboil[i] != want[i] {
			t.Errorf("parboil[%d] = %s, want %s", i, parboil[i], want[i])
		}
	}
	if got := len(Names("halloc")); got != 4 {
		t.Errorf("halloc suite has %d workloads, want 4", got)
	}
	if got := len(Names("sdk")); got != 1 {
		t.Errorf("sdk suite has %d workloads, want 1", got)
	}
	if len(Names("")) != len(All()) {
		t.Error("Names(\"\") must cover the registry")
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown workload must error")
	}
}

// TestAllWorkloadsEmulate builds every workload at scale 1 and runs the
// whole grid through the functional emulator: this catches divergence
// bugs, bad addresses and shared memory violations in every kernel.
func TestAllWorkloadsEmulate(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			spec, err := w.Build(Params{Scale: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := spec.Launch.Kernel.Validate(); err != nil {
				t.Fatal(err)
			}
			e, err := emu.New(spec.Launch, spec.Memory, 128)
			if err != nil {
				t.Fatal(err)
			}
			totalInsts, totalMem := 0, 0
			for blk := 0; blk < spec.Launch.Blocks(); blk++ {
				bt, err := e.EmulateBlock(blk)
				if err != nil {
					t.Fatalf("block %d: %v", blk, err)
				}
				totalInsts += bt.DynInsts
				totalMem += bt.GlobalAccesses
				// Every global access must fall inside a registered
				// region (otherwise the timing run aborts).
				code := spec.Launch.Kernel.Code
				for i := range bt.Warps {
					for it := bt.Warps[i].Iter(code); it.Next(); {
						if !code[it.PC()].IsGlobalMem() {
							continue
						}
						for _, line := range it.Lines(nil) {
							if !inRegions(spec.Regions, line) {
								t.Fatalf("block %d pc %d: access %#x outside regions",
									blk, it.PC(), line)
							}
						}
					}
				}
			}
			if totalInsts == 0 || totalMem == 0 {
				t.Fatalf("degenerate workload: %d insts, %d mem accesses", totalInsts, totalMem)
			}
			t.Logf("%s: %d blocks, %d dyn warp insts, %d global accesses",
				w.Name, spec.Launch.Blocks(), totalInsts, totalMem)
		})
	}
}

func inRegions(regs []vm.Region, addr uint64) bool {
	for i := range regs {
		if regs[i].Contains(addr) {
			return true
		}
	}
	return false
}

// TestWorkloadsDeterministic: two builds with the same parameters yield
// identical traces (required for scheme comparisons to be meaningful).
func TestWorkloadsDeterministic(t *testing.T) {
	for _, name := range []string{"sgemm", "spmv", "halloc-spree"} {
		a, err := Build(name, Params{Scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(name, Params{Scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		ea, _ := emu.New(a.Launch, a.Memory, 128)
		eb, _ := emu.New(b.Launch, b.Memory, 128)
		ta, err := ea.EmulateBlock(0)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := eb.EmulateBlock(0)
		if err != nil {
			t.Fatal(err)
		}
		if ta.DynInsts != tb.DynInsts || ta.MemRequests != tb.MemRequests {
			t.Errorf("%s: builds differ (%d/%d insts, %d/%d reqs)",
				name, ta.DynInsts, tb.DynInsts, ta.MemRequests, tb.MemRequests)
		}
	}
}

// TestRepresentativeFullSim runs three representative workloads through
// the full timing simulator.
func TestRepresentativeFullSim(t *testing.T) {
	if testing.Short() {
		t.Skip("full sim runs")
	}
	for _, name := range []string{"sgemm", "lbm", "histo"} {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := Build(name, Params{Scale: 1})
			if err != nil {
				t.Fatal(err)
			}
			cfg := config.Default()
			r, err := sim.RunSpec(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			if r.Blocks != spec.Launch.Blocks() {
				t.Errorf("completed %d of %d blocks", r.Blocks, spec.Launch.Blocks())
			}
			if r.FaultUnit.Raised != 0 {
				t.Errorf("resident run raised %d faults", r.FaultUnit.Raised)
			}
			t.Logf("%s: %d cycles, IPC %.2f, occupancy %d blocks/SM",
				name, r.Cycles, r.IPC(), r.Occupancy)
		})
	}
}

// TestLBMOccupancy: lbm must run at 8 warps (2 blocks of 4 warps) per
// SM, like the paper's register-starved original.
func TestLBMOccupancy(t *testing.T) {
	spec, err := Build("lbm", Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	occ := spec.Launch.Occupancy(cfg.SM.MaxThreadBlocks, cfg.SM.MaxWarps,
		cfg.SM.WarpSize, cfg.SM.RegisterFileKB, cfg.SM.SharedMemoryKB)
	if occ != 2 {
		t.Errorf("lbm occupancy = %d blocks, want 2 (8 warps)", occ)
	}
}

// TestPlacements: demand-paging and lazy-output placements register the
// right region kinds.
func TestPlacements(t *testing.T) {
	dp, err := Build("stencil", Params{Scale: 1, Placement: DemandPaging()})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]vm.RegionKind{}
	for _, r := range dp.Regions {
		kinds[r.Name] = r.Kind
	}
	if kinds["in"] != vm.RegionCPUInit || kinds["out"] != vm.RegionCPUClean {
		t.Errorf("demand paging kinds = %v", kinds)
	}
	lz, err := Build("stencil", Params{Scale: 1, Placement: LazyOutput()})
	if err != nil {
		t.Fatal(err)
	}
	kinds = map[string]vm.RegionKind{}
	for _, r := range lz.Regions {
		kinds[r.Name] = r.Kind
	}
	if kinds["in"] != vm.RegionGPUInit || kinds["out"] != vm.RegionLazy {
		t.Errorf("lazy output kinds = %v", kinds)
	}
}
