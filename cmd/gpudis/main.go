// Command gpudis disassembles a bundled workload kernel (or assembles a
// .s listing) and reports static and dynamic statistics.
//
// Examples:
//
//	gpudis -workload lbm                  # print the kernel listing
//	gpudis -workload sgemm -stats        # listing + dynamic trace stats
//	gpudis -in kernel.s -stats -grid 64 -block 128
package main

import (
	"flag"
	"fmt"
	"os"

	"gpues/internal/asm"
	"gpues/internal/emu"
	"gpues/internal/isa"
	"gpues/internal/kernel"
	"gpues/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "", "bundled workload to disassemble")
		inFile   = flag.String("in", "", "assemble a .s listing instead")
		stats    = flag.Bool("stats", false, "emulate and print dynamic statistics")
		scale    = flag.Int("scale", 1, "workload scale")
		gridX    = flag.Int("grid", 1, "grid size for -in listings")
		blockX   = flag.Int("block", 128, "block size for -in listings")
	)
	flag.Parse()

	// Check every value before any output: a bad one exits 2 instead of
	// running as something else (Dim3 counts a zero extent as 1) or
	// failing after the listing.
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(2)
	}
	if *scale < 1 || *scale > workloads.MaxScale {
		usage("-scale %d outside [1,%d]", *scale, workloads.MaxScale)
	}
	if *gridX < 1 {
		usage("-grid %d: need at least one block", *gridX)
	}
	if *blockX < 1 || *blockX > emu.MaxBlockThreads {
		usage("-block %d outside [1,%d]", *blockX, emu.MaxBlockThreads)
	}
	if *workload != "" {
		if _, err := workloads.Get(*workload); err != nil {
			usage("%v", err)
		}
	}

	var launch *kernel.Launch
	var mem *emu.Memory
	switch {
	case *workload != "":
		spec, err := workloads.Build(*workload, workloads.Params{Scale: *scale})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		launch = spec.Launch
		mem = spec.Memory
	case *inFile != "":
		src, err := os.ReadFile(*inFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		k, err := asm.Assemble(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		launch = &kernel.Launch{Kernel: k,
			Grid: kernel.Dim3{X: *gridX}, Block: kernel.Dim3{X: *blockX}}
		mem = emu.NewMemory()
	default:
		usage("need -workload or -in; see -h")
	}

	fmt.Print(asm.Disassemble(launch.Kernel))

	// Static summary.
	classes := map[isa.Unit]int{}
	globalMem := 0
	for _, in := range launch.Kernel.Code {
		classes[in.ExecUnit()]++
		if in.IsGlobalMem() {
			globalMem++
		}
	}
	fmt.Printf("\n// static: %d instructions (%d math, %d sfu, %d ld/st [%d global], %d branch)\n",
		len(launch.Kernel.Code), classes[isa.UnitMath], classes[isa.UnitSpecial],
		classes[isa.UnitLoadStore], globalMem, classes[isa.UnitBranch])
	fmt.Printf("// launch: %d blocks x %d threads, %d regs/thread, %d B shared\n",
		launch.Blocks(), launch.ThreadsPerBlock(),
		launch.Kernel.RegsPerThread, launch.Kernel.SharedMemBytes)

	if !*stats {
		return
	}
	e, err := emu.New(launch, mem, 128)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dyn, accesses, reqs, runs, runBytes, lineBytes := 0, 0, 0, 0, 0, 0
	pages := map[uint64]bool{}
	for b := 0; b < launch.Blocks(); b++ {
		bt, err := e.EmulateBlock(b)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dyn += bt.DynInsts
		accesses += bt.GlobalAccesses
		reqs += bt.MemRequests
		runs += bt.NumRuns()
		runBytes += bt.RunBytes()
		lineBytes += bt.LineBytes()
		for p := range bt.TouchedPages(launch.Kernel.Code, 4096) {
			pages[p] = true
		}
		e.Release(bt)
	}
	fmt.Printf("// dynamic: %d warp instructions, %d global accesses -> %d coalesced requests (%.2f req/access)\n",
		dyn, accesses, reqs, float64(reqs)/float64(max(1, accesses)))
	bytes := runBytes + lineBytes
	fmt.Printf("// trace: %d runs (%.1f instructions per run), %d B per block (%.2f B per instruction): runs %d B, lines %d B per block\n",
		runs, float64(dyn)/float64(max(1, runs)), bytes/launch.Blocks(), float64(bytes)/float64(max(1, dyn)),
		runBytes/launch.Blocks(), lineBytes/launch.Blocks())
	fmt.Printf("// footprint: %d distinct 4 KB pages (%d KB)\n", len(pages), len(pages)*4)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
