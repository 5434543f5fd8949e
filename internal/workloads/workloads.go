// Package workloads provides the benchmark kernels of the paper's
// evaluation: synthetic reconstructions of the 11 Parboil benchmarks
// [Stratton et al. 2012] (Section 5.1), four Halloc-style dynamic
// allocation benchmarks and a quad-tree builder (Section 5.4).
//
// Each workload reproduces the *architectural signature* of its
// original — occupancy, register pressure, arithmetic intensity, memory
// access pattern, divergence, atomics, inter-block data reuse and load
// balance — rather than its exact numerics; the paper's figures depend
// on those signatures. Every builder initializes functional memory
// deterministically, so repeated builds produce identical traces.
package workloads

import (
	"fmt"
	"math/rand"
	"sort"

	"gpues/internal/emu"
	"gpues/internal/kernel"
	"gpues/internal/sim"
	"gpues/internal/vm"
)

// Placement selects where buffers live at kernel launch.
type Placement struct {
	// Inputs is the region kind of kernel input buffers: GPUInit for
	// fault-free runs (explicit transfers), CPUInit for on-demand
	// paging.
	Inputs vm.RegionKind
	// Outputs is the kind of kernel output buffers (and the device
	// heap): GPUInit for preallocated, Lazy for first-touch faults.
	Outputs vm.RegionKind
}

// Resident places everything in GPU memory: the fault-free
// configuration of Figures 10 and 11.
func Resident() Placement {
	return Placement{Inputs: vm.RegionGPUInit, Outputs: vm.RegionGPUInit}
}

// DemandPaging starts all data in CPU memory, as in Figure 12: inputs
// dirty (migration faults), outputs clean (allocation-only faults).
func DemandPaging() Placement {
	return Placement{Inputs: vm.RegionCPUInit, Outputs: vm.RegionCPUClean}
}

// LazyOutput leaves outputs (and heap) unallocated, as in Figures 13
// and 14.
func LazyOutput() Placement {
	return Placement{Inputs: vm.RegionGPUInit, Outputs: vm.RegionLazy}
}

// Params configures a workload build.
type Params struct {
	// Scale multiplies the dataset size; 1 is the small (CI) size, 2-4
	// the sizes used by the experiment harness.
	Scale int
	// Placement is the buffer placement policy.
	Placement Placement
	// Seed perturbs the deterministic input generation.
	Seed int64
}

// MaxScale bounds Params.Scale for a caller that takes the scale from
// outside. Workload images grow with the scale: at scale 8 the largest,
// stencil's, is 32 MiB and grows with the square of the scale. The
// repository's figures and CI run scales 1-4.
const MaxScale = 8

// normalize fills defaults.
func (p Params) normalize() Params {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	var zero Placement
	if p.Placement == zero {
		p.Placement = Resident()
	}
	return p
}

// Workload is a named benchmark.
type Workload struct {
	Name        string
	Suite       string // "parboil", "halloc" or "sdk"
	Description string
	Build       func(p Params) (sim.LaunchSpec, error)
}

var registry []Workload

func register(w Workload) {
	registry = append(registry, w)
}

// Get returns the named workload.
func Get(name string) (Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// Names returns the registered workload names for a suite ("" = all),
// sorted.
func Names(suite string) []string {
	var out []string
	for _, w := range registry {
		if suite == "" || w.Suite == suite {
			out = append(out, w.Name)
		}
	}
	sort.Strings(out)
	return out
}

// All returns all registered workloads.
func All() []Workload {
	out := make([]Workload, len(registry))
	copy(out, registry)
	return out
}

// Build builds the named workload.
func Build(name string, p Params) (sim.LaunchSpec, error) {
	w, err := Get(name)
	if err != nil {
		return sim.LaunchSpec{}, err
	}
	return w.Build(p)
}

// ---- builder scaffolding ----------------------------------------------

// regionAlign keeps buffers aligned to the 64 KB fault handling
// granularity so no handling region spans two buffers.
const regionAlign = 64 * 1024

// buildCtx accumulates the memory image and region list of a workload.
type buildCtx struct {
	mem  *emu.Memory
	regs []vm.Region
	next uint64
	rng  *rand.Rand
}

func newBuildCtx(seed int64) *buildCtx {
	return &buildCtx{
		mem:  emu.NewMemory(),
		next: 16 * 1024 * 1024, // leave low VA unused
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// buffer reserves a named region of the given size and kind, returning
// its base address.
func (c *buildCtx) buffer(name string, size int, kind vm.RegionKind) uint64 {
	if size <= 0 {
		size = 1
	}
	base := (c.next + regionAlign - 1) &^ (regionAlign - 1)
	padded := (uint64(size) + regionAlign - 1) &^ (regionAlign - 1)
	c.next = base + padded
	c.regs = append(c.regs, vm.Region{Name: name, Base: base, Size: padded, Kind: kind})
	return base
}

// spec assembles the final LaunchSpec.
func (c *buildCtx) spec(l *kernel.Launch) sim.LaunchSpec {
	return sim.LaunchSpec{Launch: l, Memory: c.mem, Regions: c.regs}
}

// fillF64 writes n pseudo-random float64 values in [0,1) at base.
func (c *buildCtx) fillF64(base uint64, n int) {
	for i := 0; i < n; i++ {
		c.mem.WriteF64(base+uint64(i*8), c.rng.Float64())
	}
}

// fillU64 writes n pseudo-random uint64 values below limit at base.
func (c *buildCtx) fillU64(base uint64, n int, limit uint64) {
	for i := 0; i < n; i++ {
		c.mem.WriteU64(base+uint64(i*8), c.rng.Uint64()%limit)
	}
}
