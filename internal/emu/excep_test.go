package emu

import (
	"strings"
	"testing"

	"gpues/internal/excep"
	"gpues/internal/isa"
	"gpues/internal/kernel"
)

// emuRaise emulates block 0 of a one-block launch and returns the
// exception record of the first warp that raised one, failing the test
// when emulation errors or no warp raised.
func emuRaise(t *testing.T, l *kernel.Launch) (*BlockTrace, *excep.Record) {
	t.Helper()
	e, err := New(l, NewMemory(), 128)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := e.EmulateBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bt.Warps {
		if bt.Warps[i].Excep != nil {
			return bt, bt.Warps[i].Excep
		}
	}
	t.Fatal("no warp raised a device exception")
	return nil, nil
}

func oneBlock(k *kernel.Kernel, threads int) *kernel.Launch {
	return &kernel.Launch{Kernel: k, Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: threads}}
}

func TestAssertRaisesAndTruncates(t *testing.T) {
	b := kernel.NewBuilder("assert")
	tid, cond, x := b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTidX)                  // pc 0
	b.SetP(isa.CmpNE, cond, tid, isa.RZ, 5) // pc 1
	b.Assert(cond, 3)                       // pc 2: fails on lane 5
	b.MovI(x, 1)                            // pc 3: must never trace
	b.Exit()
	k := b.MustBuild()
	bt, r := emuRaise(t, oneBlock(k, 32))

	if r.Kind != excep.KindAssert {
		t.Errorf("kind = %v, want %v", r.Kind, excep.KindAssert)
	}
	if r.Lane != 5 || r.Warp != 0 || r.Block != 0 {
		t.Errorf("raised at block %d warp %d lane %d, want 0/0/5", r.Block, r.Warp, r.Lane)
	}
	if r.PC != 2 {
		t.Errorf("faulting PC = %d, want 2", r.PC)
	}
	if !strings.Contains(r.Detail, "assert 3") {
		t.Errorf("detail %q does not name assert id 3", r.Detail)
	}
	// The trace ends just before the faulting instruction.
	var pcs []int32
	for it := bt.Warps[0].Iter(k.Code); it.Next(); {
		pcs = append(pcs, it.PC())
	}
	if len(pcs) != 2 || pcs[0] != 0 || pcs[1] != 1 {
		t.Fatalf("trace must be pcs [0 1], ending before the assert; got %v", pcs)
	}
	if len(r.Frames) == 0 {
		t.Fatal("record has no stack frames")
	}
	if top := r.Frames[len(r.Frames)-1]; top.PC != r.PC {
		t.Errorf("top frame PC = %d, want faulting PC %d", top.PC, r.PC)
	}
}

// TestDivergentAssertFrames raises inside a divergent region: the
// record must carry the divergence stack — a base frame plus the branch
// frame whose mask names exactly the lanes that took the faulting path.
func TestDivergentAssertFrames(t *testing.T) {
	b := kernel.NewBuilder("divassert")
	lane, p, q, v := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	thenL, recon := b.NewLabel(), b.NewLabel()
	b.S2R(lane, isa.SRLaneID)
	b.SetP(isa.CmpLT, p, lane, isa.RZ, 16)
	b.BraIf(p, false, thenL, recon)
	b.MovI(v, 2) // else path
	b.Bra(recon)
	b.Bind(thenL)
	b.SetP(isa.CmpNE, q, lane, isa.RZ, 3)
	b.Assert(q, 11) // fails on lane 3 of the taken path
	b.Bind(recon)
	b.Exit()
	_, r := emuRaise(t, oneBlock(b.MustBuild(), 32))

	if r.Kind != excep.KindAssert || r.Lane != 3 {
		t.Errorf("got %v at lane %d, want assert at lane 3", r.Kind, r.Lane)
	}
	if len(r.Frames) < 2 {
		t.Fatalf("got %d stack frames, want >= 2 (base + divergent branch)", len(r.Frames))
	}
	top := r.Frames[len(r.Frames)-1]
	if top.Mask != 0x0000ffff {
		t.Errorf("top frame mask = %08x, want 0000ffff (lanes 0-15)", top.Mask)
	}
	if top.PC != r.PC {
		t.Errorf("top frame PC = %d, want faulting PC %d", top.PC, r.PC)
	}
}

func TestTrapRaises(t *testing.T) {
	b := kernel.NewBuilder("trap")
	lane, p := b.Reg(), b.Reg()
	b.S2R(lane, isa.SRLaneID)
	b.SetP(isa.CmpEQ, p, lane, isa.RZ, 7)
	b.TrapIf(p, false, 9)
	b.Exit()
	_, r := emuRaise(t, oneBlock(b.MustBuild(), 32))

	if r.Kind != excep.KindTrap {
		t.Errorf("kind = %v, want %v", r.Kind, excep.KindTrap)
	}
	if r.Lane != 7 {
		t.Errorf("lane = %d, want 7", r.Lane)
	}
	if !strings.Contains(r.Detail, "trap 9") {
		t.Errorf("detail %q does not name trap code 9", r.Detail)
	}
}

func TestMallocWithoutHeapRaisesOOM(t *testing.T) {
	b := kernel.NewBuilder("noheap")
	d := b.Reg()
	b.Malloc(d, isa.RZ, 64)
	b.Exit()
	_, r := emuRaise(t, oneBlock(b.MustBuild(), 32))
	if r.Kind != excep.KindDeviceOOM {
		t.Errorf("kind = %v, want %v", r.Kind, excep.KindDeviceOOM)
	}
}

func TestMallocExhaustionRaisesOOM(t *testing.T) {
	b := kernel.NewBuilder("oom")
	d := b.Reg()
	b.Malloc(d, isa.RZ, 1<<21) // 2 MiB per lane from a 1 MiB heap
	b.Exit()
	l := oneBlock(b.MustBuild(), 32)
	l.HeapBase, l.HeapBytes = 1<<20, 1<<20
	_, r := emuRaise(t, l)
	if r.Kind != excep.KindDeviceOOM {
		t.Errorf("kind = %v, want %v", r.Kind, excep.KindDeviceOOM)
	}
}

func TestMallocSucceedsWithinHeap(t *testing.T) {
	b := kernel.NewBuilder("heapok")
	lane, d := b.Reg(), b.Reg()
	b.S2R(lane, isa.SRLaneID)
	b.Malloc(d, isa.RZ, 64)
	b.StGlobal(d, 0, lane, 8) // returned pointers must be writable
	b.Exit()
	l := oneBlock(b.MustBuild(), 32)
	l.HeapBase, l.HeapBytes = 1<<20, 1<<20
	e, err := New(l, NewMemory(), 128)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := e.EmulateBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Warps[0].Excep != nil {
		t.Fatalf("in-budget malloc raised %v", bt.Warps[0].Excep)
	}
}

func TestIllegalAddressRaises(t *testing.T) {
	b := kernel.NewBuilder("nullderef")
	addr, v := b.Reg(), b.Reg()
	b.MovI(addr, 0x100) // below IllegalFloor
	b.LdGlobal(v, addr, 0, 8)
	b.Exit()
	_, r := emuRaise(t, oneBlock(b.MustBuild(), 32))
	if r.Kind != excep.KindIllegalAddress {
		t.Errorf("kind = %v, want %v", r.Kind, excep.KindIllegalAddress)
	}
	if r.Addr != 0x100 {
		t.Errorf("faulting address = %#x, want 0x100", r.Addr)
	}
}

func TestMisalignedAccessRaises(t *testing.T) {
	b := kernel.NewBuilder("misaligned")
	addr, v := b.Reg(), b.Reg()
	b.MovI(addr, 0x10004) // 4-byte offset on an 8-byte access
	b.LdGlobal(v, addr, 0, 8)
	b.Exit()
	_, r := emuRaise(t, oneBlock(b.MustBuild(), 32))
	if r.Kind != excep.KindMisaligned {
		t.Errorf("kind = %v, want %v", r.Kind, excep.KindMisaligned)
	}
	if r.Addr != 0x10004 {
		t.Errorf("faulting address = %#x, want 0x10004", r.Addr)
	}
}
