package emu

import (
	"math"
	"strings"
	"testing"

	"gpues/internal/isa"
	"gpues/internal/kernel"
)

// buildVecAdd builds out[i] = a[i] + b[i] over float64 with one thread
// per element.
func buildVecAdd(aAddr, bAddr, outAddr uint64) *kernel.Kernel {
	b := kernel.NewBuilder("vecadd")
	pa := b.AddParam(aAddr)
	pb := b.AddParam(bAddr)
	po := b.AddParam(outAddr)

	tid := b.Reg()
	ctaid := b.Reg()
	ntid := b.Reg()
	gid := b.Reg()
	off := b.Reg()
	base := b.Reg()
	va := b.Reg()
	vb := b.Reg()

	b.S2R(tid, isa.SRTidX)
	b.S2R(ctaid, isa.SRCtaIDX)
	b.S2R(ntid, isa.SRNTidX)
	b.IMad(gid, ctaid, ntid, tid) // gid = ctaid*ntid + tid
	b.Shl(off, gid, 3)            // byte offset (8B elements)
	b.LoadParam(base, pa)
	b.IAdd(base, base, off, 0)
	b.LdGlobal(va, base, 0, 8)
	b.LoadParam(base, pb)
	b.IAdd(base, base, off, 0)
	b.LdGlobal(vb, base, 0, 8)
	b.FAdd(va, va, vb)
	b.LoadParam(base, po)
	b.IAdd(base, base, off, 0)
	b.StGlobal(base, 0, va, 8)
	b.Exit()
	return b.MustBuild()
}

func TestVecAddFunctional(t *testing.T) {
	const n = 256
	aAddr, bAddr, oAddr := uint64(0x10000), uint64(0x20000), uint64(0x30000)
	mem := NewMemory()
	for i := 0; i < n; i++ {
		mem.WriteF64(aAddr+uint64(i*8), float64(i))
		mem.WriteF64(bAddr+uint64(i*8), float64(2*i))
	}
	k := buildVecAdd(aAddr, bAddr, oAddr)
	l := &kernel.Launch{Kernel: k, Grid: kernel.Dim3{X: 4}, Block: kernel.Dim3{X: 64}}
	e, err := New(l, mem, 128)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for blk := 0; blk < l.Blocks(); blk++ {
		bt, err := e.EmulateBlock(blk)
		if err != nil {
			t.Fatal(err)
		}
		total += bt.DynInsts
		if bt.GlobalAccesses != 2*2+1*2 {
			// 2 warps x (2 loads + 1 store) = 6 global accesses.
			t.Errorf("block %d global accesses = %d, want 6", blk, bt.GlobalAccesses)
		}
	}
	for i := 0; i < n; i++ {
		want := float64(i) + float64(2*i)
		if got := mem.ReadF64(oAddr + uint64(i*8)); got != want {
			t.Fatalf("out[%d] = %v, want %v", i, got, want)
		}
	}
	if total == 0 {
		t.Error("no dynamic instructions recorded")
	}
}

func TestCoalescingUnitStride(t *testing.T) {
	// 32 lanes x 8 B unit-stride = 256 B = exactly 2 lines of 128 B.
	mem := NewMemory()
	k := buildVecAdd(0x10000, 0x20000, 0x30000)
	l := &kernel.Launch{Kernel: k, Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}}
	e, _ := New(l, mem, 128)
	bt, err := e.EmulateBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	for it := bt.Warps[0].Iter(k.Code); it.Next(); {
		if n := len(it.Lines(nil)); k.Code[it.PC()].IsGlobalMem() && n != 2 {
			t.Errorf("unit-stride 8B access at pc %d coalesced to %d requests, want 2", it.PC(), n)
		}
	}
	if bt.MemRequests != 6 {
		t.Errorf("block mem requests = %d, want 6 (3 accesses x 2 lines)", bt.MemRequests)
	}
}

func TestCoalesceScattered(t *testing.T) {
	var addrs [32]uint64
	for lane := 0; lane < 32; lane++ {
		addrs[lane] = uint64(lane) * 4096 // one page apart: no sharing
	}
	lines := coalesce(nil, &addrs, ^uint32(0), 4, 128)
	if len(lines) != 32 {
		t.Errorf("scattered access = %d requests, want 32", len(lines))
	}
	// All lanes in the same line collapse to one request.
	for lane := range addrs {
		addrs[lane] = 64
	}
	lines = coalesce(nil, &addrs, ^uint32(0), 4, 128)
	if len(lines) != 1 || lines[0] != 0 {
		t.Errorf("same-line access = %v, want [0]", lines)
	}
}

func TestCoalesceStraddle(t *testing.T) {
	var addrs [32]uint64
	addrs[0] = 124 // 8-byte access crossing the 128 B boundary
	lines := coalesce(nil, &addrs, 1, 8, 128)
	if len(lines) != 2 || lines[0] != 0 || lines[1] != 128 {
		t.Errorf("straddling access = %v, want [0 128]", lines)
	}
}

func TestDivergenceReconvergence(t *testing.T) {
	// Each lane: if (lane < 16) out[lane] = 1 else out[lane] = 2;
	// then out2[lane] = 3 (post-reconvergence, full mask).
	out, out2 := uint64(0x10000), uint64(0x20000)
	b := kernel.NewBuilder("diverge")
	po := b.AddParam(out)
	po2 := b.AddParam(out2)
	lane := b.Reg()
	p := b.Reg()
	addr := b.Reg()
	v := b.Reg()
	thenL := b.NewLabel()
	recon := b.NewLabel()

	b.S2R(lane, isa.SRLaneID)
	b.SetP(isa.CmpLT, p, lane, isa.RZ, 16)
	b.LoadParam(addr, po)
	b.Shl(v, lane, 3)
	b.IAdd(addr, addr, v, 0)
	b.BraIf(p, false, thenL, recon)
	b.MovI(v, 2) // else
	b.StGlobal(addr, 0, v, 8)
	b.Bra(recon)
	b.Bind(thenL)
	b.MovI(v, 1) // then
	b.StGlobal(addr, 0, v, 8)
	b.Bind(recon)
	b.LoadParam(addr, po2)
	b.Shl(v, lane, 3)
	b.IAdd(addr, addr, v, 0)
	b.MovI(v, 3)
	b.StGlobal(addr, 0, v, 8)
	b.Exit()

	mem := NewMemory()
	l := &kernel.Launch{Kernel: b.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}}
	e, _ := New(l, mem, 128)
	bt, err := e.EmulateBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 32; lane++ {
		want := uint64(2)
		if lane < 16 {
			want = 1
		}
		if got := mem.ReadU64(out + uint64(lane*8)); got != want {
			t.Errorf("out[%d] = %d, want %d", lane, got, want)
		}
		if got := mem.ReadU64(out2 + uint64(lane*8)); got != 3 {
			t.Errorf("out2[%d] = %d, want 3 (post-reconvergence)", lane, got)
		}
	}
	// The post-reconvergence store must execute once with a full mask.
	fullMaskStores := 0
	for it := bt.Warps[0].Iter(l.Kernel.Code); it.Next(); {
		if l.Kernel.Code[it.PC()].Op == isa.OpStGlobal && it.Mask() == ^uint32(0) {
			fullMaskStores++
		}
	}
	if fullMaskStores != 1 {
		t.Errorf("full-mask stores = %d, want 1 (reconverged store)", fullMaskStores)
	}
}

func TestUniformLoop(t *testing.T) {
	// sum = 0; for i in 0..9: sum += i; out[tid] = sum
	b := kernel.NewBuilder("loop")
	po := b.AddParam(0x40000)
	tid := b.Reg()
	sum := b.Reg()
	i := b.Reg()
	p := b.Reg()
	addr := b.Reg()

	b.S2R(tid, isa.SRTidX)
	b.MovI(sum, 0)
	b.MovI(i, 0)
	loop := b.Here()
	b.IAdd(sum, sum, i, 0)
	b.IAdd(i, i, isa.RZ, 1)
	b.SetP(isa.CmpLT, p, i, isa.RZ, 10)
	b.BraIfUniform(p, false, loop)
	b.LoadParam(addr, po)
	b.Shl(i, tid, 3)
	b.IAdd(addr, addr, i, 0)
	b.StGlobal(addr, 0, sum, 8)
	b.Exit()

	mem := NewMemory()
	l := &kernel.Launch{Kernel: b.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}}
	e, _ := New(l, mem, 128)
	if _, err := e.EmulateBlock(0); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 32; lane++ {
		if got := mem.ReadU64(0x40000 + uint64(lane*8)); got != 45 {
			t.Fatalf("out[%d] = %d, want 45", lane, got)
		}
	}
}

func TestDivergentUniformAssertFails(t *testing.T) {
	b := kernel.NewBuilder("badloop")
	lane := b.Reg()
	p := b.Reg()
	l0 := b.NewLabel()
	b.S2R(lane, isa.SRLaneID)
	b.Bind(l0)
	b.SetP(isa.CmpLT, p, lane, isa.RZ, 5)
	b.BraIfUniform(p, false, l0) // diverges: only lanes < 5 take it
	b.Exit()
	mem := NewMemory()
	l := &kernel.Launch{Kernel: b.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}}
	e, _ := New(l, mem, 128)
	if _, err := e.EmulateBlock(0); err == nil {
		t.Fatal("divergent uniform-asserted branch must error")
	}
}

func TestBarrierAndSharedMemory(t *testing.T) {
	// Block-wide reversal through shared memory:
	// shared[tid] = tid; barrier; out[tid] = shared[ntid-1-tid].
	const threads = 128
	b := kernel.NewBuilder("reverse").SetSharedMem(threads * 8)
	po := b.AddParam(0x50000)
	tid := b.Reg()
	ntid := b.Reg()
	off := b.Reg()
	roff := b.Reg()
	v := b.Reg()
	addr := b.Reg()

	b.S2R(tid, isa.SRTidX)
	b.S2R(ntid, isa.SRNTidX)
	b.Shl(off, tid, 3)
	b.StShared(off, 0, tid, 8)
	b.Bar()
	b.ISub(roff, ntid, tid)
	b.IAdd(roff, roff, isa.RZ, -1)
	b.Shl(roff, roff, 3)
	b.LdShared(v, roff, 0, 8)
	b.LoadParam(addr, po)
	b.IAdd(addr, addr, off, 0)
	b.StGlobal(addr, 0, v, 8)
	b.Exit()

	mem := NewMemory()
	l := &kernel.Launch{Kernel: b.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: threads}}
	e, _ := New(l, mem, 128)
	bt, err := e.EmulateBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bt.Warps) != threads/32 {
		t.Fatalf("warps = %d, want %d", len(bt.Warps), threads/32)
	}
	for i := 0; i < threads; i++ {
		want := uint64(threads - 1 - i)
		if got := mem.ReadU64(0x50000 + uint64(i*8)); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestAtomicsAccumulate(t *testing.T) {
	// Every thread atomically adds 1 to a counter; also checks the old
	// values are all distinct (true serialization).
	b := kernel.NewBuilder("atom")
	pc := b.AddParam(0x60000)
	pold := b.AddParam(0x70000)
	addr := b.Reg()
	one := b.Reg()
	old := b.Reg()
	tid := b.Reg()
	oaddr := b.Reg()

	ctaid := b.Reg()
	ntid := b.Reg()
	b.LoadParam(addr, pc)
	b.MovI(one, 1)
	b.AtomGlobal(isa.AtomAdd, old, addr, one, isa.RegNone, 8)
	b.S2R(tid, isa.SRTidX)
	b.S2R(ctaid, isa.SRCtaIDX)
	b.S2R(ntid, isa.SRNTidX)
	b.IMad(tid, ctaid, ntid, tid)
	b.LoadParam(oaddr, pold)
	b.Shl(tid, tid, 3)
	b.IAdd(oaddr, oaddr, tid, 0)
	b.StGlobal(oaddr, 0, old, 8)
	b.Exit()

	mem := NewMemory()
	l := &kernel.Launch{Kernel: b.MustBuild(), Grid: kernel.Dim3{X: 2}, Block: kernel.Dim3{X: 64}}
	e, _ := New(l, mem, 128)
	for blk := 0; blk < 2; blk++ {
		if _, err := e.EmulateBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	if got := mem.ReadU64(0x60000); got != 128 {
		t.Errorf("counter = %d, want 128", got)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < 128; i++ {
		v := mem.ReadU64(0x70000 + uint64(i*8))
		if seen[v] {
			t.Fatalf("duplicate atomic ticket %d", v)
		}
		seen[v] = true
	}
}

func TestPartialWarp(t *testing.T) {
	// 40 threads = 1 full warp + 8 lanes.
	b := kernel.NewBuilder("partial")
	po := b.AddParam(0x80000)
	tid := b.Reg()
	addr := b.Reg()
	b.S2R(tid, isa.SRTidX)
	b.LoadParam(addr, po)
	b.Shl(tid, tid, 3)
	b.IAdd(addr, addr, tid, 0)
	b.MovI(tid, 7)
	b.StGlobal(addr, 0, tid, 8)
	b.Exit()

	mem := NewMemory()
	l := &kernel.Launch{Kernel: b.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 40}}
	e, _ := New(l, mem, 128)
	bt, err := e.EmulateBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bt.Warps) != 2 {
		t.Fatalf("warps = %d, want 2", len(bt.Warps))
	}
	// The partial warp's stores carry only 8 active lanes.
	for it := bt.Warps[1].Iter(l.Kernel.Code); it.Next(); {
		if l.Kernel.Code[it.PC()].Op == isa.OpStGlobal && it.Mask() != 0xff {
			t.Errorf("partial warp store mask = %#x, want 0xff", it.Mask())
		}
	}
	for i := 0; i < 40; i++ {
		if got := mem.ReadU64(0x80000 + uint64(i*8)); got != 7 {
			t.Fatalf("out[%d] = %d, want 7", i, got)
		}
	}
	if got := mem.ReadU64(0x80000 + 40*8); got != 0 {
		t.Errorf("store beyond thread count: %d", got)
	}
}

func TestPredicatedExit(t *testing.T) {
	// Lanes >= 8 exit early; remaining lanes store.
	b := kernel.NewBuilder("pexit")
	po := b.AddParam(0x90000)
	lane := b.Reg()
	p := b.Reg()
	addr := b.Reg()
	one := b.Reg()
	b.S2R(lane, isa.SRLaneID)
	b.SetP(isa.CmpGE, p, lane, isa.RZ, 8)
	// Lanes >= 8 branch directly to the exit; lanes < 8 store first.
	done := b.NewLabel()
	recon := b.NewLabel()
	b.BraIf(p, false, done, recon)
	b.LoadParam(addr, po)
	b.Shl(one, lane, 3)
	b.IAdd(addr, addr, one, 0)
	b.MovI(one, 1)
	b.StGlobal(addr, 0, one, 8)
	b.Bind(done)
	b.Bind(recon)
	b.Exit()

	mem := NewMemory()
	l := &kernel.Launch{Kernel: b.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}}
	e, _ := New(l, mem, 128)
	if _, err := e.EmulateBlock(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		want := uint64(0)
		if i < 8 {
			want = 1
		}
		if got := mem.ReadU64(0x90000 + uint64(i*8)); got != want {
			t.Errorf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestRunawayLoopDetected(t *testing.T) {
	b := kernel.NewBuilder("forever")
	l0 := b.Here()
	b.Nop()
	b.Bra(l0)
	b.Exit()
	mem := NewMemory()
	l := &kernel.Launch{Kernel: b.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}}
	e, _ := New(l, mem, 128)
	e.MaxWarpInsts = 1000
	if _, err := e.EmulateBlock(0); err == nil {
		t.Fatal("infinite loop must be detected")
	}
}

func TestSharedMemoryBounds(t *testing.T) {
	b := kernel.NewBuilder("oob").SetSharedMem(64)
	off := b.Reg()
	b.MovI(off, 1000)
	b.StShared(off, 0, off, 8)
	b.Exit()
	mem := NewMemory()
	l := &kernel.Launch{Kernel: b.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}}
	e, _ := New(l, mem, 128)
	if _, err := e.EmulateBlock(0); err == nil {
		t.Fatal("out-of-bounds shared access must error")
	}
}

// TestSharedMemoryWrappingOffset pins the bounds check against offsets
// whose end wraps past zero: `mov r, -1; st.shared [r+0].4` once
// indexed the partition at 2^64-1 and panicked. Every such access must
// come back as an error.
func TestSharedMemoryWrappingOffset(t *testing.T) {
	cases := []struct {
		name string
		off  int64 // register value
		imm  int64 // instruction offset
		load bool
	}{
		{"store reg -1", -1, 0, false},
		{"load reg -1", -1, 0, true},
		{"store imm -1", 0, -1, false},
		{"store reg -8 imm +4", -8, 4, false},
		{"load max offset", math.MaxInt64, math.MaxInt64, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := kernel.NewBuilder("wrap").SetSharedMem(64)
			off := b.Reg()
			b.MovI(off, c.off)
			if c.load {
				b.LdShared(off, off, c.imm, 4)
			} else {
				b.StShared(off, c.imm, off, 4)
			}
			b.Exit()
			l := &kernel.Launch{Kernel: b.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}}
			e, _ := New(l, NewMemory(), 128)
			_, err := e.EmulateBlock(0)
			if err == nil || !strings.Contains(err.Error(), "beyond 64 B partition") {
				t.Fatalf("err = %v, want a shared out-of-partition error", err)
			}
		})
	}
}

func TestEmulateBlockRange(t *testing.T) {
	b := kernel.NewBuilder("k")
	b.Exit()
	l := &kernel.Launch{Kernel: b.MustBuild(), Grid: kernel.Dim3{X: 2}, Block: kernel.Dim3{X: 32}}
	e, _ := New(l, NewMemory(), 128)
	if _, err := e.EmulateBlock(-1); err == nil {
		t.Error("negative block must error")
	}
	if _, err := e.EmulateBlock(2); err == nil {
		t.Error("out-of-range block must error")
	}
}

func TestTouchedPages(t *testing.T) {
	mem := NewMemory()
	k := buildVecAdd(0x10000, 0x20000, 0x30000)
	l := &kernel.Launch{Kernel: k, Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}}
	e, _ := New(l, mem, 128)
	bt, err := e.EmulateBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	pages := bt.TouchedPages(k.Code, 4096)
	want := map[uint64]bool{0x10000: true, 0x20000: true, 0x30000: true}
	if len(pages) != 3 {
		t.Errorf("touched pages = %v, want %v", pages, want)
	}
	for p := range want {
		if !pages[p] {
			t.Errorf("page %#x not touched", p)
		}
	}
}
