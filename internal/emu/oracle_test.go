package emu

import (
	"math"
	"math/rand"
	"testing"

	"gpues/internal/isa"
	"gpues/internal/kernel"
)

// This file cross-checks the warp-wide emulator against an independent
// per-lane interpreter on randomly generated straight-line programs.
// The emulator decodes each instruction once and executes it for every
// active lane of a warp; the oracle runs the whole program one thread
// at a time over a plain register array. Any divergence between the
// two implementations is a bug in one of them.

// oracleThread is one thread's architectural state and identity.
type oracleThread struct {
	regs   [isa.MaxRegs]uint64
	tid    int // linear thread index within the block
	block  int
	launch *kernel.Launch
	shared []byte // the block's shared memory
}

// exec interprets one instruction for the thread — deliberately
// written separately from the emulator.
func (th *oracleThread) exec(in isa.Instruction) {
	read := func(r isa.Reg) uint64 {
		if r == isa.RZ || r == isa.RegNone {
			return 0
		}
		return th.regs[r]
	}
	write := func(r isa.Reg, v uint64) {
		if r != isa.RZ && r != isa.RegNone {
			th.regs[r] = v
		}
	}
	if in.Pred != isa.RegNone && (read(in.Pred)&1 == 1) == in.PredNeg {
		return // predicated off in this lane
	}
	a, b, c := read(in.SrcA), read(in.SrcB), read(in.SrcC)
	f := math.Float64frombits
	fb := math.Float64bits
	bit := func(ok bool) uint64 {
		if ok {
			return 1
		}
		return 0
	}
	dim := func(n int) int {
		if n == 0 {
			return 1
		}
		return n
	}
	switch in.Op {
	case isa.OpIAdd:
		write(in.Dst, a+b+uint64(in.Imm))
	case isa.OpISub:
		write(in.Dst, a-b)
	case isa.OpIMul:
		if in.SrcB != isa.RZ && in.SrcB != isa.RegNone {
			write(in.Dst, a*b)
		} else {
			write(in.Dst, a*uint64(in.Imm))
		}
	case isa.OpIMad:
		write(in.Dst, a*b+c)
	case isa.OpIMin:
		if int64(a) < int64(b) {
			write(in.Dst, a)
		} else {
			write(in.Dst, b)
		}
	case isa.OpIMax:
		if int64(a) > int64(b) {
			write(in.Dst, a)
		} else {
			write(in.Dst, b)
		}
	case isa.OpShl:
		write(in.Dst, a<<((b+uint64(in.Imm))&63))
	case isa.OpShr:
		write(in.Dst, a>>((b+uint64(in.Imm))&63))
	case isa.OpAnd:
		if in.SrcB != isa.RZ && in.SrcB != isa.RegNone {
			write(in.Dst, a&b)
		} else {
			write(in.Dst, a&uint64(in.Imm))
		}
	case isa.OpOr:
		write(in.Dst, a|b|uint64(in.Imm))
	case isa.OpXor:
		write(in.Dst, a^b^uint64(in.Imm))
	case isa.OpMov:
		if in.SrcA != isa.RegNone {
			write(in.Dst, a)
		} else {
			write(in.Dst, uint64(in.Imm))
		}
	case isa.OpSetP:
		lhs, rhs := int64(a), int64(b)+in.Imm
		var ok bool
		switch in.Cmp {
		case isa.CmpEQ:
			ok = lhs == rhs
		case isa.CmpNE:
			ok = lhs != rhs
		case isa.CmpLT:
			ok = lhs < rhs
		case isa.CmpLE:
			ok = lhs <= rhs
		case isa.CmpGT:
			ok = lhs > rhs
		case isa.CmpGE:
			ok = lhs >= rhs
		}
		write(in.Dst, bit(ok))
	case isa.OpFSetP:
		lhs, rhs := f(a), f(b)
		var ok bool
		switch in.Cmp {
		case isa.CmpEQ:
			ok = lhs == rhs
		case isa.CmpNE:
			ok = lhs != rhs
		case isa.CmpLT:
			ok = lhs < rhs
		case isa.CmpLE:
			ok = lhs <= rhs
		case isa.CmpGT:
			ok = lhs > rhs
		case isa.CmpGE:
			ok = lhs >= rhs
		}
		write(in.Dst, bit(ok))
	case isa.OpFAdd:
		write(in.Dst, fb(f(a)+f(b)))
	case isa.OpFSub:
		write(in.Dst, fb(f(a)-f(b)))
	case isa.OpFMul:
		write(in.Dst, fb(f(a)*f(b)))
	case isa.OpFFma:
		write(in.Dst, fb(math.FMA(f(a), f(b), f(c))))
	case isa.OpFMin:
		write(in.Dst, fb(math.Min(f(a), f(b))))
	case isa.OpFMax:
		write(in.Dst, fb(math.Max(f(a), f(b))))
	case isa.OpI2F:
		write(in.Dst, fb(float64(int64(a))))
	case isa.OpF2I:
		if math.IsNaN(f(a)) {
			write(in.Dst, 0)
		} else {
			write(in.Dst, uint64(int64(f(a))))
		}
	case isa.OpFRcp:
		write(in.Dst, fb(1/f(a)))
	case isa.OpFSqrt:
		write(in.Dst, fb(math.Sqrt(f(a))))
	case isa.OpFRsqrt:
		write(in.Dst, fb(1/math.Sqrt(f(a))))
	case isa.OpFExp:
		write(in.Dst, fb(math.Exp2(f(a))))
	case isa.OpFLog:
		write(in.Dst, fb(math.Log2(f(a))))
	case isa.OpFSin:
		write(in.Dst, fb(math.Sin(f(a))))
	case isa.OpFCos:
		write(in.Dst, fb(math.Cos(f(a))))
	case isa.OpLdParam:
		write(in.Dst, th.launch.Kernel.Params[in.Imm])
	case isa.OpS2R:
		bx, by := dim(th.launch.Block.X), dim(th.launch.Block.Y)
		gx, gy := dim(th.launch.Grid.X), dim(th.launch.Grid.Y)
		var v int
		switch isa.SReg(in.Imm) {
		case isa.SRTidX:
			v = th.tid % bx
		case isa.SRTidY:
			v = th.tid / bx
		case isa.SRCtaIDX:
			v = th.block % gx
		case isa.SRCtaIDY:
			v = th.block / gx
		case isa.SRNTidX:
			v = bx
		case isa.SRNTidY:
			v = by
		case isa.SRGridDimX:
			v = gx
		case isa.SRGridDimY:
			v = gy
		case isa.SRLaneID:
			v = th.tid % 32
		case isa.SRWarpID:
			v = th.tid / 32
		}
		write(in.Dst, uint64(v))
	case isa.OpLdShared:
		off := a + uint64(in.Imm)
		var v uint64
		for i := 0; i < int(in.Size); i++ {
			v |= uint64(th.shared[off+uint64(i)]) << (8 * i)
		}
		write(in.Dst, v)
	case isa.OpStShared:
		off := a + uint64(in.Imm)
		for i := 0; i < int(in.Size); i++ {
			th.shared[off+uint64(i)] = byte(b >> (8 * i))
		}
	}
}

const (
	// oracleRegs is the pool of registers random instructions use.
	oracleRegs = 16
	// oracleWindow is the slice of shared memory private to each
	// thread. Threads never share bytes, so running the program one
	// thread at a time sees the same shared state as running it warp by
	// warp.
	oracleWindow = 64
)

// sizePatch records a shared access whose width Validate would reject:
// it is built as an 8-byte access and narrowed after emu.New.
type sizePatch struct {
	pc   int
	size uint8
}

// oracleProgram is a random straight-line kernel and the oracle's view
// of it.
type oracleProgram struct {
	k *kernel.Kernel
	// segments are the instructions the oracle runs, with true access
	// widths. After each one the kernel stores the register pool to
	// out, one row per thread, so every segment's end state is
	// observed.
	segments [][]isa.Instruction
	pool     []isa.Reg
	patches  []sizePatch
}

// randProgram builds a random straight-line program over a register
// pool: a prologue that seeds the pool with lane-varying integers and
// floats (NaN and the infinities among them), then four segments of
// random predicated and unpredicated ALU, SFU, special-register,
// parameter and shared-memory instructions. The pool is allocated
// last, so its top register is also the highest one the kernel names.
func randProgram(rng *rand.Rand, outBase uint64, threads int) *oracleProgram {
	const segments, segLen = 4, 25
	b := kernel.NewBuilder("fuzz").SetSharedMem(threads * oracleWindow)
	po := b.AddParam(outBase)
	params := []int{b.AddParam(rng.Uint64()), b.AddParam(rng.Uint64() >> 40), b.AddParam(math.Float64bits(rng.NormFloat64()))}

	// The dump's registers and the thread's shared window sit below the
	// pool; no random instruction writes them.
	addr, row, sbase := b.Reg(), b.Reg(), b.Reg()
	regs := make([]isa.Reg, oracleRegs)
	for i := range regs {
		regs[i] = b.Reg()
	}
	p := &oracleProgram{pool: regs}

	var seg []isa.Instruction
	emit := func(in isa.Instruction) {
		b.Emit(in)
		seg = append(seg, in)
	}
	op2 := func(op isa.Op, d, a, rb isa.Reg, imm int64) {
		in := isa.NewInstruction(op)
		in.Dst, in.SrcA, in.SrcB, in.Imm = d, a, rb, imm
		emit(in)
	}
	op1 := func(op isa.Op, d, a isa.Reg, imm int64) { op2(op, d, a, isa.RegNone, imm) }
	s2r := func(d isa.Reg, s isa.SReg) { op1(isa.OpS2R, d, isa.RegNone, int64(s)) }
	rreg := func() isa.Reg {
		if rng.Intn(8) == 0 {
			return isa.RZ
		}
		return regs[rng.Intn(oracleRegs)]
	}
	// dump stores the pool to out[k][tid], outside the oracle's view.
	dump := func(k int) {
		b.S2R(row, isa.SRWarpID)
		b.IMul(row, row, isa.RZ, 32)
		b.S2R(addr, isa.SRLaneID)
		b.IAdd(row, row, addr, 0)
		b.IMul(row, row, isa.RZ, oracleRegs*8)
		b.LoadParam(addr, po)
		b.IAdd(addr, addr, row, 0)
		for i := 0; i < oracleRegs; i++ {
			b.StGlobal(addr, int64((k*threads*oracleRegs+i)*8), regs[i], 8)
		}
		p.segments = append(p.segments, seg)
		seg = nil
	}

	// Prologue: the shared window, then lane-varying seeds. Registers
	// from regs[9] up start unwritten, so reads of them see the block's
	// initial zeros.
	s2r(sbase, isa.SRWarpID)
	op1(isa.OpIMul, sbase, sbase, 32)
	s2r(regs[0], isa.SRLaneID)
	op2(isa.OpIAdd, sbase, sbase, regs[0], 0)
	op1(isa.OpIMul, sbase, sbase, oracleWindow)
	s2r(regs[1], isa.SRTidX)
	op1(isa.OpXor, regs[2], regs[0], rng.Int63())
	op2(isa.OpIMul, regs[3], regs[2], regs[2], 0)
	for off := 0; off < oracleWindow; off += 8 {
		in := isa.NewInstruction(isa.OpStShared)
		in.SrcA, in.SrcB, in.Imm, in.Size = sbase, regs[3], int64(off), 8
		emit(in) // fill the window, so narrow loads see nonzero high bytes
		op1(isa.OpShl, regs[3], regs[3], 5)
	}
	op1(isa.OpI2F, regs[4], regs[1], 0)
	op1(isa.OpMov, regs[5], isa.RegNone, int64(math.Float64bits(math.NaN())))
	specials := []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e30, -0.5}
	for i := 6; i < 9; i++ {
		v := rng.Float64()*16 - 8
		if rng.Intn(3) == 0 {
			v = specials[rng.Intn(len(specials))]
		}
		op1(isa.OpMov, regs[i], isa.RegNone, int64(math.Float64bits(v)))
	}

	ops := []isa.Op{
		isa.OpNop,
		isa.OpIAdd, isa.OpISub, isa.OpIMul, isa.OpIMad, isa.OpIMin, isa.OpIMax,
		isa.OpShl, isa.OpShr, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpMov, isa.OpSetP,
		isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFFma, isa.OpFMin, isa.OpFMax,
		isa.OpFSetP, isa.OpI2F, isa.OpF2I,
		isa.OpFRcp, isa.OpFSqrt, isa.OpFRsqrt, isa.OpFExp, isa.OpFLog, isa.OpFSin, isa.OpFCos,
		isa.OpS2R, isa.OpLdParam, isa.OpLdShared, isa.OpStShared,
	}
	sizes := []uint8{1, 2, 4, 8}
	for k := 0; k < segments; k++ {
		for i := 0; i < segLen; i++ {
			in := isa.NewInstruction(ops[rng.Intn(len(ops))])
			in.Dst = regs[rng.Intn(oracleRegs)]
			size := uint8(0)
			switch in.Op {
			case isa.OpNop:
				in.Dst = isa.RegNone
			case isa.OpIMad, isa.OpFFma:
				in.SrcA, in.SrcB, in.SrcC = rreg(), rreg(), rreg()
			case isa.OpMov:
				in.SrcA = rreg()
				if rng.Intn(2) == 0 {
					in.SrcA = isa.RegNone
					in.Imm = rng.Int63n(4096)
				}
			case isa.OpShl, isa.OpShr:
				in.SrcA, in.SrcB = rreg(), isa.RZ
				in.Imm = rng.Int63n(63)
			case isa.OpSetP:
				in.SrcA, in.SrcB = rreg(), rreg()
				in.Imm = rng.Int63n(64) - 32
				in.Cmp = isa.Cmp(rng.Intn(6))
			case isa.OpFSetP:
				in.SrcA, in.SrcB = rreg(), rreg()
				in.Cmp = isa.Cmp(rng.Intn(6))
			case isa.OpI2F, isa.OpF2I, isa.OpFRcp, isa.OpFSqrt, isa.OpFRsqrt,
				isa.OpFExp, isa.OpFLog, isa.OpFSin, isa.OpFCos:
				in.SrcA = rreg()
			case isa.OpS2R:
				in.Imm = int64(rng.Intn(int(isa.SRNumSReg)))
			case isa.OpLdParam:
				in.Imm = int64(params[rng.Intn(len(params))])
			case isa.OpLdShared, isa.OpStShared:
				size = sizes[rng.Intn(len(sizes))]
				in.SrcA, in.Size = sbase, size
				in.Imm = rng.Int63n(int64(oracleWindow - int(size) + 1))
				if in.Op == isa.OpStShared {
					in.Dst, in.SrcB = isa.RegNone, rreg()
				}
			default:
				in.SrcA, in.SrcB = rreg(), rreg()
				if rng.Intn(2) == 0 {
					in.Imm = rng.Int63n(100)
				}
			}
			// A third of the writes alias a source, so a lane must read
			// its operands before the destination changes under it.
			if in.Dst != isa.RegNone && rng.Intn(3) == 0 {
				for _, r := range [...]isa.Reg{in.SrcA, in.SrcB, in.SrcC} {
					if r != isa.RegNone && r != isa.RZ && r != sbase {
						in.Dst = r
						break
					}
				}
			}
			// A quarter are predicated on a register's low bit, giving
			// partial execution masks.
			if rng.Intn(4) == 0 {
				in.Pred, in.PredNeg = regs[rng.Intn(oracleRegs)], rng.Intn(2) == 0
			}
			if size == 1 || size == 2 {
				p.patches = append(p.patches, sizePatch{pc: b.PC(), size: size})
				built := in
				built.Size = 8
				b.Emit(built)
				seg = append(seg, in)
				continue
			}
			emit(in)
		}
		dump(k)
	}
	b.Exit()
	p.k = b.MustBuild()
	return p
}

func TestEmulatorMatchesOracle(t *testing.T) {
	const outBase = uint64(0x100000)
	shapes := []struct {
		name        string
		grid, block kernel.Dim3
		blocks      []int // emulated in order by one emulator
	}{
		{"one-warp", kernel.Dim3{X: 2}, kernel.Dim3{X: 32}, []int{0, 1}},
		// 20×3 = 60 threads: a full warp and a 28-lane last warp, in a
		// 3×2 grid whose blocks 4 and 1 have nonzero CTA coordinates.
		{"partial-last-warp", kernel.Dim3{X: 3, Y: 2}, kernel.Dim3{X: 20, Y: 3}, []int{4, 1}},
	}
	seenOps := make(map[isa.Op]bool)
	seenSRegs := make(map[isa.SReg]bool)
	seenSizes := make(map[uint8]bool)
	partialMasks, aliased := 0, 0
	for _, sh := range shapes {
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			l := &kernel.Launch{Grid: sh.grid, Block: sh.block}
			threads := l.ThreadsPerBlock()
			p := randProgram(rng, outBase, threads)
			l.Kernel = p.k
			mem := NewMemory()
			e, err := New(l, mem, 128)
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range p.patches {
				p.k.Code[pt.pc].Size = pt.size
			}
			// Later blocks reuse the first block's pooled warp state, so
			// they also check that a block starts from zeroed registers.
			for _, blk := range sh.blocks {
				bt, err := e.EmulateBlock(blk)
				if err != nil {
					t.Fatalf("%s seed %d block %d: %v", sh.name, seed, blk, err)
				}
				// Oracle: run the program one thread at a time.
				shared := make([]byte, p.k.SharedMemBytes)
				for tid := 0; tid < threads; tid++ {
					th := &oracleThread{tid: tid, block: blk, launch: l, shared: shared}
					for k, seg := range p.segments {
						for _, in := range seg {
							th.exec(in)
						}
						for i, r := range p.pool {
							got := mem.ReadU64(outBase + uint64(((k*threads+tid)*oracleRegs+i)*8))
							if want := th.regs[r]; got != want {
								t.Fatalf("%s seed %d block %d thread %d, after segment %d, pool r%d: emulator %#x, oracle %#x",
									sh.name, seed, blk, tid, k, i, got, want)
							}
						}
					}
				}
				if got := e.sharedBuf[:len(shared)]; string(got) != string(shared) {
					t.Fatalf("%s seed %d block %d: shared memory differs from the oracle's", sh.name, seed, blk)
				}
				for _, w := range bt.Warps {
					for _, ti := range w.Insts {
						if ti.Static.Pred != isa.RegNone && ti.Mask != 0 && ti.Mask != ^uint32(0) {
							partialMasks++
						}
					}
				}
			}

			for _, seg := range p.segments {
				for _, in := range seg {
					seenOps[in.Op] = true
					if in.Op == isa.OpS2R {
						seenSRegs[isa.SReg(in.Imm)] = true
					}
					if in.IsMem() {
						seenSizes[in.Size] = true
					}
					inPool := in.Dst >= p.pool[0] && in.Dst <= p.pool[oracleRegs-1]
					if inPool && (in.Dst == in.SrcA || in.Dst == in.SrcB || in.Dst == in.SrcC) {
						aliased++
					}
				}
			}
		}
	}

	// The random programs must have covered what they exist to check.
	for op := isa.OpNop; op <= isa.OpStShared; op++ {
		switch op {
		case isa.OpLdGlobal, isa.OpStGlobal, isa.OpAtomGlobal:
			continue // the dumps' stores; globals have their own tests
		}
		if !seenOps[op] {
			t.Errorf("no random program exercised %v", op.Mnemonic())
		}
	}
	for s := isa.SReg(0); s < isa.SRNumSReg; s++ {
		if !seenSRegs[s] {
			t.Errorf("no random program read special register %d", s)
		}
	}
	for _, size := range []uint8{1, 2, 4, 8} {
		if !seenSizes[size] {
			t.Errorf("no random program made a %d-byte shared access", size)
		}
	}
	if partialMasks == 0 || aliased == 0 {
		t.Errorf("partial-mask instructions %d, aliased destinations %d: want both > 0", partialMasks, aliased)
	}
}
