package emu

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gpues/internal/excep"
	"gpues/internal/isa"
	"gpues/internal/kernel"
)

// This file cross-checks the warp-wide emulator against an independent
// per-lane interpreter on randomly generated programs with divergent,
// reconverging branches. The emulator decodes each instruction once
// and executes it for every active lane of a warp, splitting and
// rejoining the warp on its divergence stack; the oracle runs the
// whole program one thread at a time over a plain register array,
// following each branch for its thread alone, and coalesces each
// warp's memory accesses itself, so every line the trace stores is
// checked too. Any divergence between the two implementations is a bug
// in one of them. A program may also carry one raising instruction,
// whose exception records the oracle predicts from the lanes' own
// checks.

// oracleThread is one thread's architectural state and identity.
type oracleThread struct {
	regs   [isa.MaxRegs]uint64
	tid    int // linear thread index within the block
	block  int
	launch *kernel.Launch
	shared []byte          // the block's shared memory
	global map[uint64]byte // global memory the program wrote
	// access, when set, sees each memory access the thread makes.
	access func(pc int, addr uint64, size int)
}

// reg reads register r.
func (th *oracleThread) reg(r isa.Reg) uint64 {
	if r == isa.RZ || r == isa.RegNone {
		return 0
	}
	return th.regs[r]
}

// active reports whether the thread executes in: its predicate, if
// any, holds. A branch is taken exactly when it is active.
func (th *oracleThread) active(in isa.Instruction) bool {
	if in.Pred == isa.RegNone {
		return true
	}
	p := uint64(0)
	if in.Pred != isa.RZ {
		p = th.regs[in.Pred]
	}
	return (p&1 == 1) != in.PredNeg
}

// run interprets the instructions code[start:end] for the thread,
// following taken branches, which all jump forward within the range
// or to its end. It calls taken(pc, ok) for each branch it reaches.
func (th *oracleThread) run(code []isa.Instruction, start, end int, taken func(pc int, ok bool)) {
	for pc := start; pc < end; {
		in := code[pc]
		if in.Op != isa.OpBra {
			if in.IsMem() && th.access != nil && th.active(in) {
				th.access(pc, th.reg(in.SrcA)+uint64(in.Imm), int(in.Size))
			}
			th.exec(in)
			pc++
			continue
		}
		ok := th.active(in)
		taken(pc, ok)
		if ok {
			pc = int(in.Target)
		} else {
			pc++
		}
	}
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
	if !th.active(in) {
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
	case isa.OpLdGlobal:
		addr := a + uint64(in.Imm)
		var v uint64
		for i := 0; i < int(in.Size); i++ {
			v |= uint64(th.global[addr+uint64(i)]) << (8 * i)
		}
		write(in.Dst, v)
	case isa.OpStGlobal:
		addr := a + uint64(in.Imm)
		for i := 0; i < int(in.Size); i++ {
			th.global[addr+uint64(i)] = byte(b >> (8 * i))
		}
	}
}

// fault returns the exception the thread raises at in, if any: a
// trap, a failed assert, or a global access below IllegalFloor,
// misaligned, or outside every region valid accepts, checked in that
// order.
func (th *oracleThread) fault(in isa.Instruction, valid func(uint64) bool) (excep.Kind, bool) {
	if !th.active(in) {
		return 0, false
	}
	switch in.Op {
	case isa.OpTrap:
		return excep.KindTrap, true
	case isa.OpAssert:
		return excep.KindAssert, th.reg(in.SrcA) == 0
	case isa.OpLdGlobal, isa.OpStGlobal:
		addr := th.reg(in.SrcA) + uint64(in.Imm)
		switch {
		case addr < IllegalFloor:
			return excep.KindIllegalAddress, true
		case addr%uint64(in.Size) != 0:
			return excep.KindMisaligned, true
		case !valid(addr):
			return excep.KindIllegalAddress, true
		}
	}
	return 0, false
}

const (
	// oracleRegs is the pool of registers random instructions use.
	oracleRegs = 16
	// oracleWindow is the slice of shared memory, and of global
	// memory, private to each thread. Threads never share bytes, so
	// running the program one thread at a time sees the same memory as
	// running it warp by warp.
	oracleWindow = 64
	// oracleLine is the line size the emulator coalesces to.
	oracleLine = 128
)

// globalSpan places the random programs' global windows: thread t of
// block b owns the oracleWindow bytes at base + (b*threads + t)*stride.
// base and stride are multiples of 8, so every access is aligned.
type globalSpan struct{ base, stride uint64 }

// defaultSpan packs the global windows the way a kernel's arrays are.
var defaultSpan = globalSpan{base: 1 << 24, stride: oracleWindow}

// raiseKind selects the instruction a program raises its exception
// at, and how its lanes fail.
type raiseKind uint8

const (
	raiseNone       raiseKind = iota
	raiseFloor                // a load below IllegalFloor
	raiseMisaligned           // a misaligned load
	raiseOutside              // a load past the probe region's end
	raiseFloorAlign           // a load both below the floor and misaligned
	raiseTrap                 // a trap
	raiseAssert               // a failed assert
	numRaiseKinds
)

// raiseSpec places one raising instruction: at the start of segment
// seg, failing on the lanes from lane up. pred, when not negative, also
// predicates it on pool register pred, so some failing lanes may be
// inactive and the lowest failing active lane is any lane.
type raiseSpec struct {
	kind raiseKind
	seg  int
	lane int
	pred int
}

// The probe region holds one 8-byte word per lane and nothing else;
// no program writes it, and the addresses past its end, up to the
// output dump at oracleOutBase, lie in no region. Below-floor lanes
// address probeLow upward.
const (
	probeBase = uint64(0x80000)
	probeSize = 32 * 8
	probeLow  = uint64(0x100)
)

// sizePatch records a shared access whose width Validate would reject:
// it is built as an 8-byte access and narrowed after emu.New.
type sizePatch struct {
	pc   int
	size uint8
}

// oracleProgram is a random kernel and the oracle's view of it.
type oracleProgram struct {
	k *kernel.Kernel
	// segments are the code ranges the oracle runs, once patches are
	// applied. After each one the kernel stores the register pool to
	// out, one row per thread, so every segment's end state is
	// observed.
	segments []pcRange
	pool     []isa.Reg
	patches  []sizePatch
	// raisePC is the PC of the raising instruction, or -1, and
	// raiseSeg the segment it starts.
	raisePC, raiseSeg int
}

// pcRange is the instructions code[start:end].
type pcRange struct{ start, end int }

// insts returns the instructions of segment k.
func (p *oracleProgram) insts(k int) []isa.Instruction {
	return p.k.Code[p.segments[k].start:p.segments[k].end]
}

// randProgram builds a random program over a register pool: a prologue
// that seeds the pool with lane-varying integers and floats (NaN and
// the infinities among them), then four segments of random predicated
// and unpredicated ALU, SFU, special-register, parameter, shared-memory
// and global-memory instructions, among them if and if-else regions,
// nested up to two deep, whose branch predicates are pool registers
// and so split warps. Global accesses stay inside the thread's window
// that g places. Every region reconverges before its segment ends. The
// pool is allocated last, so its top register is also the highest one
// the kernel names. x, unless its kind is raiseNone, places one raising
// instruction; the rest of the program does not depend on it.
func randProgram(rng *rand.Rand, outBase uint64, threads int, g globalSpan, x raiseSpec) *oracleProgram {
	const segments, segLen, maxDepth = 4, 25, 2
	b := kernel.NewBuilder("fuzz").SetSharedMem(threads * oracleWindow)
	po := b.AddParam(outBase)
	pBase, pStride := b.AddParam(g.base), b.AddParam(g.stride)
	params := []int{b.AddParam(rng.Uint64()), b.AddParam(rng.Uint64() >> 40), b.AddParam(math.Float64bits(rng.NormFloat64()))}

	// The dump's registers and the thread's shared and global windows
	// sit below the pool; no random instruction writes them.
	addr, row, sbase, gbase := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	var bad, tmp isa.Reg
	if x.kind != raiseNone {
		bad, tmp = b.Reg(), b.Reg()
	}
	regs := make([]isa.Reg, oracleRegs)
	for i := range regs {
		regs[i] = b.Reg()
	}
	p := &oracleProgram{pool: regs, raisePC: -1, raiseSeg: -1}

	segStart := 0
	op2 := func(op isa.Op, d, a, rb isa.Reg, imm int64) {
		in := isa.NewInstruction(op)
		in.Dst, in.SrcA, in.SrcB, in.Imm = d, a, rb, imm
		b.Emit(in)
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
		p.segments = append(p.segments, pcRange{segStart, b.PC()})
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
		segStart = b.PC()
	}

	// Prologue: the shared window, then lane-varying seeds. Registers
	// from regs[9] up start unwritten, so reads of them see the block's
	// initial zeros.
	s2r(sbase, isa.SRWarpID)
	op1(isa.OpIMul, sbase, sbase, 32)
	s2r(regs[0], isa.SRLaneID)
	op2(isa.OpIAdd, sbase, sbase, regs[0], 0)
	op1(isa.OpIMul, sbase, sbase, oracleWindow)
	// gbase = base + (block*threads + tid)*stride, block and tid linear.
	s2r(gbase, isa.SRCtaIDY)
	s2r(addr, isa.SRGridDimX)
	op2(isa.OpIMul, gbase, gbase, addr, 0)
	s2r(addr, isa.SRCtaIDX)
	op2(isa.OpIAdd, gbase, gbase, addr, 0)
	op1(isa.OpIMul, gbase, gbase, int64(threads))
	s2r(addr, isa.SRWarpID)
	op1(isa.OpIMul, addr, addr, 32)
	op2(isa.OpIAdd, gbase, gbase, addr, 0)
	op2(isa.OpIAdd, gbase, gbase, regs[0], 0)
	b.LoadParam(addr, pStride)
	op2(isa.OpIMul, gbase, gbase, addr, 0)
	b.LoadParam(addr, pBase)
	op2(isa.OpIAdd, gbase, gbase, addr, 0)
	s2r(regs[1], isa.SRTidX)
	op1(isa.OpXor, regs[2], regs[0], rng.Int63())
	op2(isa.OpIMul, regs[3], regs[2], regs[2], 0)
	for off := 0; off < oracleWindow; off += 8 {
		in := isa.NewInstruction(isa.OpStShared)
		in.SrcA, in.SrcB, in.Imm, in.Size = sbase, regs[3], int64(off), 8
		b.Emit(in) // fill the window, so narrow loads see nonzero high bytes
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
		isa.OpLdGlobal, isa.OpStGlobal,
	}
	sizes := []uint8{1, 2, 4, 8}
	randInst := func() {
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
		case isa.OpLdGlobal, isa.OpStGlobal:
			size = sizes[2+rng.Intn(2)] // 4 or 8, the widths Validate accepts
			in.SrcA, in.Size = gbase, size
			in.Imm = int64(rng.Intn(oracleWindow/int(size)) * int(size))
			if in.Op == isa.OpStGlobal {
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
				if r != isa.RegNone && r != isa.RZ && r != sbase && r != gbase {
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
			in.Size = 8
		}
		b.Emit(in)
	}
	// block emits n random instructions or regions at nesting depth d.
	var block func(n, d int)
	block = func(n, d int) {
		for i := 0; i < n; i++ {
			if d == maxDepth || rng.Intn(6) != 0 {
				randInst()
				continue
			}
			pred, neg := regs[rng.Intn(oracleRegs)], rng.Intn(2) == 0
			end := b.NewLabel()
			if rng.Intn(2) == 0 {
				// if: the lanes whose predicate holds skip the body.
				b.BraIf(pred, neg, end, end)
				block(1+rng.Intn(5), d+1)
			} else {
				// if-else: the taken lanes run the else body first, the
				// others the then body, which jumps over it.
				els := b.NewLabel()
				b.BraIf(pred, neg, els, end)
				block(1+rng.Intn(5), d+1)
				b.Bra(end)
				b.Bind(els)
				block(1+rng.Intn(5), d+1)
			}
			b.Bind(end)
		}
	}
	for k := 0; k < segments; k++ {
		if x.kind != raiseNone && k == x.seg%segments {
			p.raiseSeg = k
			p.raisePC = emitRaise(b, x, row, bad, tmp, addr, regs)
		}
		block(segLen, 0)
		dump(k)
	}
	b.Exit()
	p.k = b.MustBuild()
	return p
}

// emitRaise emits x's raising instruction, at depth 0, and the lane
// arithmetic before it, in registers no random instruction touches:
// lane holds the lane index, bad is 1 on the lanes from x.lane up, and
// addr is a load's address, in the probe region on the other lanes.
// It returns the raising instruction's PC.
func emitRaise(b *kernel.Builder, x raiseSpec, lane, bad, tmp, addr isa.Reg, regs []isa.Reg) int {
	inst := func(op isa.Op, d, a, rb isa.Reg, imm int64) isa.Instruction {
		in := isa.NewInstruction(op)
		in.Dst, in.SrcA, in.SrcB, in.Imm = d, a, rb, imm
		return in
	}
	setp := func(d isa.Reg, cmp isa.Cmp) {
		in := inst(isa.OpSetP, d, lane, isa.RZ, int64(x.lane))
		in.Cmp = cmp
		b.Emit(in)
	}
	b.S2R(lane, isa.SRLaneID)
	setp(bad, isa.CmpGE)
	b.Emit(inst(isa.OpIMul, addr, lane, isa.RZ, 8))
	b.Emit(inst(isa.OpIAdd, addr, addr, isa.RZ, int64(probeBase)))
	switch x.kind {
	case raiseFloor, raiseFloorAlign:
		drop := probeBase - probeLow
		if x.kind == raiseFloorAlign {
			drop -= 4
		}
		b.Emit(inst(isa.OpIMul, tmp, bad, isa.RZ, int64(drop)))
		b.Emit(inst(isa.OpISub, addr, addr, tmp, 0))
	case raiseMisaligned:
		b.Emit(inst(isa.OpIMul, tmp, bad, isa.RZ, 4))
		b.Emit(inst(isa.OpIAdd, addr, addr, tmp, 0))
	case raiseOutside:
		b.Emit(inst(isa.OpIAdd, addr, addr, isa.RZ, int64(probeSize-8*x.lane)))
	case raiseAssert:
		setp(tmp, isa.CmpLT)
	}
	var in isa.Instruction
	switch x.kind {
	case raiseTrap:
		in = inst(isa.OpTrap, isa.RegNone, isa.RegNone, isa.RegNone, 7)
		in.Pred = bad
	case raiseAssert:
		in = inst(isa.OpAssert, isa.RegNone, tmp, isa.RegNone, 3)
	default:
		in = inst(isa.OpLdGlobal, tmp, addr, isa.RegNone, 0)
		in.Size = 8
	}
	if x.pred >= 0 && x.kind != raiseTrap {
		in.Pred = regs[x.pred%len(regs)]
	}
	pc := b.PC()
	b.Emit(in)
	return pc
}

// oracleOutBase is where the random programs dump their register pool.
const oracleOutBase = uint64(0x100000)

// oracleStats is what a matchOracle run exercised: how many predicated
// instructions ran with a partial mask, how many branch executions
// split a warp (some of its threads took the branch and others did
// not), and the exception records the emulator raised, each checked
// against the oracle's prediction.
type oracleStats struct {
	partialMasks, divergent int
	raised                  []*excep.Record
}

// matchOracle emulates blocks of l, which runs p with its global
// windows placed by g, in order on one emulator, handing each trace
// back before the next block so later blocks run on recycled traces,
// and compares every thread's register pool after each segment, the
// block's shared memory and every line of every memory instruction
// with the per-thread oracle; it also checks each trace's encoding
// (checkRuns). The emulator's address map holds the global windows,
// the dump area and the probe region. When p raises, each warp's
// exception record must be the oracle's: the lowest active lane that
// fails its check names it, and the warp stops there. A block whose
// lines the trace cannot encode must fail with errLineRange, and ends
// the run.
func matchOracle(t testing.TB, name string, l *kernel.Launch, p *oracleProgram, g globalSpan, blocks []int) oracleStats {
	t.Helper()
	threads := l.ThreadsPerBlock()
	mem := NewMemory()
	e, err := New(l, mem, oracleLine)
	if err != nil {
		t.Fatal(err)
	}
	regions := [][2]uint64{
		{probeBase, probeBase + probeSize},
		{oracleOutBase, oracleOutBase + uint64(len(p.segments)*threads*oracleRegs*8)},
		{g.base, g.base + uint64(l.Blocks()*threads)*g.stride},
	}
	e.AddrValid = func(lo, hi uint64) bool {
		for _, r := range regions {
			if lo >= r[0] && hi < r[1] {
				return true
			}
		}
		return false
	}
	valid := func(a uint64) bool { return e.AddrValid(a, a) }
	for _, pt := range p.patches {
		p.k.Code[pt.pc].Size = pt.size
	}
	code := p.k.Code
	global := make(map[uint64]byte)
	var st oracleStats
	// Later blocks reuse the first block's pooled warp state, so they
	// also check that a block starts from zeroed registers.
	for _, blk := range blocks {
		bt, emuErr := e.EmulateBlock(blk)
		// Oracle: run the program one thread at a time, its dumps too.
		// No branch runs twice in a thread, so a warp's lanes at one
		// branch PC are one execution of it, and its lanes' accesses at
		// one PC are one memory instruction. Threads share no bytes, so
		// running them segment by segment sees what running each one
		// through sees.
		type lanes struct{ taken, fell uint32 }
		branches := make(map[[2]int]*lanes)
		accesses := make(map[[2]int][]laneAccess)
		shared := make([]byte, p.k.SharedMemBytes)
		ths := make([]*oracleThread, threads)
		takens := make([]func(pc int, ok bool), threads)
		for tid := range ths {
			th := &oracleThread{tid: tid, block: blk, launch: l, shared: shared, global: global}
			takens[tid] = func(pc int, ok bool) {
				key := [2]int{tid / 32, pc}
				if branches[key] == nil {
					branches[key] = &lanes{}
				}
				if ok {
					branches[key].taken |= 1 << (tid % 32)
				} else {
					branches[key].fell |= 1 << (tid % 32)
				}
			}
			th.access = func(pc int, addr uint64, size int) {
				key := [2]int{tid / 32, pc}
				accesses[key] = append(accesses[key], laneAccess{addr, size})
			}
			ths[tid] = th
		}
		// want holds each warp's predicted exception record.
		want := make([]*excep.Record, (threads+31)/32)
		for k, seg := range p.segments {
			start := seg.start
			if k == p.raiseSeg {
				for tid, th := range ths {
					th.run(code, seg.start, p.raisePC, takens[tid])
				}
				in := code[p.raisePC]
				for tid, th := range ths {
					w := tid / 32
					kind, ok := th.fault(in, valid)
					if !ok || want[w] != nil {
						continue
					}
					mask := ^uint32(0) >> (32 - min(threads-w*32, 32))
					want[w] = &excep.Record{
						Kind: kind, Block: int32(blk), Warp: int32(w), Lane: int32(tid % 32),
						PC: int32(p.raisePC), Mnemonic: in.Op.Mnemonic(),
						Frames: []excep.Frame{{PC: int32(p.raisePC), RPC: -2, Mask: mask}},
					}
					if in.IsGlobalMem() {
						want[w].Addr = th.reg(in.SrcA) + uint64(in.Imm)
					}
				}
				start = p.raisePC
			}
			for tid, th := range ths {
				if want[tid/32] != nil {
					continue // the warp stopped at its exception
				}
				th.run(code, start, seg.end, takens[tid])
				if emuErr == nil {
					for i, r := range p.pool {
						got := mem.ReadU64(oracleOutBase + uint64(((k*threads+tid)*oracleRegs+i)*8))
						if want := th.regs[r]; got != want {
							t.Fatalf("%s block %d thread %d, after segment %d, pool r%d: emulator %#x, oracle %#x",
								name, blk, tid, k, i, got, want)
						}
					}
				}
				dumpEnd := len(code) - 1 // the final exit
				if k+1 < len(p.segments) {
					dumpEnd = p.segments[k+1].start
				}
				th.run(code, seg.end, dumpEnd, takens[tid])
			}
		}
		tooFar := linesOutOfRange(accesses, code)
		if emuErr != nil {
			if !errors.Is(emuErr, errLineRange) || tooFar < 0 {
				t.Fatalf("%s block %d: %v", name, blk, emuErr)
			}
			return st
		}
		if tooFar >= 0 {
			t.Fatalf("%s block %d: warp %d has a line more than 2^31 lines from its first, and the emulator encoded it", name, blk, tooFar)
		}
		for w := range bt.Warps {
			got := bt.Warps[w].Excep
			if got == nil && want[w] == nil {
				continue
			}
			if got == nil || want[w] == nil {
				t.Fatalf("%s block %d warp %d: emulator raised %+v, oracle %+v", name, blk, w, got, want[w])
			}
			if got.Kind != want[w].Kind || got.Block != want[w].Block || got.Warp != want[w].Warp ||
				got.Lane != want[w].Lane || got.PC != want[w].PC || got.Mnemonic != want[w].Mnemonic ||
				got.Addr != want[w].Addr || !slices.Equal(got.Frames, want[w].Frames) {
				t.Fatalf("%s block %d warp %d: emulator raised %+v, oracle %+v", name, blk, w, got, want[w])
			}
			st.raised = append(st.raised, got)
		}
		checkRuns(t, fmt.Sprintf("%s block %d", name, blk), bt, code)
		checkLines(t, fmt.Sprintf("%s block %d", name, blk), bt, code, accesses)
		if got := e.sharedBuf[:len(shared)]; string(got) != string(shared) {
			t.Fatalf("%s block %d: shared memory differs from the oracle's", name, blk)
		}
		for _, ln := range branches {
			if ln.taken != 0 && ln.fell != 0 {
				st.divergent++
			}
		}
		for i := range bt.Warps {
			for it := bt.Warps[i].Iter(code); it.Next(); {
				if m := it.Mask(); code[it.PC()].Pred != isa.RegNone && m != 0 && m != ^uint32(0) {
					st.partialMasks++
				}
			}
		}
		e.Release(bt)
	}
	return st
}

// laneAccess is one lane's access: size bytes at addr.
type laneAccess struct {
	addr uint64
	size int
}

// oracleLines coalesces one warp instruction's lane accesses, given in
// lane order, into the lines they touch, in first-touch order.
func oracleLines(accs []laneAccess) []uint64 {
	var lines []uint64
	for _, a := range accs {
		first := a.addr / oracleLine * oracleLine
		last := (a.addr + uint64(a.size) - 1) / oracleLine * oracleLine
		for line := first; line <= last; line += oracleLine {
			if !slices.Contains(lines, line) {
				lines = append(lines, line)
			}
		}
	}
	return lines
}

// linesOutOfRange returns the first warp, in warp order, with a line
// whose line number lies more than a signed 32-bit offset from the
// warp's first line's, or -1 when every warp's lines can be stored.
// Only global accesses have lines. Every branch jumps forward, so a
// warp's first global access is the one at its lowest PC.
func linesOutOfRange(accesses map[[2]int][]laneAccess, code []isa.Instruction) int {
	first := make(map[int][2]int)
	for key := range accesses {
		if !code[key[1]].IsGlobalMem() {
			continue
		}
		if f, ok := first[key[0]]; !ok || key[1] < f[1] {
			first[key[0]] = key
		}
	}
	worst := -1
	for key, accs := range accesses {
		if !code[key[1]].IsGlobalMem() {
			continue
		}
		base := oracleLines(accesses[first[key[0]]])[0] / oracleLine
		for _, line := range oracleLines(accs) {
			if d := int64(line/oracleLine - base); d != int64(int32(d)) && (worst < 0 || key[0] < worst) {
				worst = key[0]
			}
		}
	}
	return worst
}

// checkLines compares every global memory instruction's decoded lines
// with the oracle's coalescing of its lanes' accesses, requires exactly
// zero lines on every shared memory instruction, and checks that the
// trace holds every memory instruction the oracle ran.
func checkLines(t testing.TB, name string, bt *BlockTrace, code []isa.Instruction, accesses map[[2]int][]laneAccess) {
	t.Helper()
	seen := 0
	var got []uint64
	for w := range bt.Warps {
		for it := bt.Warps[w].Iter(code); it.Next(); {
			in := code[it.PC()]
			if !in.IsMem() {
				continue
			}
			accs, ok := accesses[[2]int{w, int(it.PC())}]
			if ok {
				seen++
			}
			got = it.Lines(got[:0])
			var want []uint64
			if in.IsGlobalMem() {
				want = oracleLines(accs)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s warp %d pc %d: lines %#x, oracle %#x", name, w, it.PC(), got, want)
			}
		}
	}
	if seen != len(accesses) {
		t.Fatalf("%s: trace holds %d of the %d memory instructions the oracle ran", name, seen, len(accesses))
	}
}

// checkRuns checks the encoding of a block trace: every run is
// non-empty and maximal (the next run neither continues its PCs under
// its mask), run lengths sum to each warp's Len and to the block's
// DynInsts, and each warp holds one line count per global memory
// instruction, whose counts consume exactly its lines.
func checkRuns(t testing.TB, name string, bt *BlockTrace, code []isa.Instruction) {
	t.Helper()
	total := 0
	for w := range bt.Warps {
		wt := &bt.Warps[w]
		n := 0
		for i, r := range wt.Runs {
			if r.N == 0 {
				t.Fatalf("%s warp %d: run %d is empty", name, w, i)
			}
			if i > 0 {
				if prev := wt.Runs[i-1]; prev.Mask == r.Mask && prev.PC+int32(prev.N) == r.PC {
					t.Fatalf("%s warp %d: run %d %+v continues run %d %+v", name, w, i, r, i-1, prev)
				}
			}
			n += int(r.N)
		}
		if n != wt.Len {
			t.Fatalf("%s warp %d: runs hold %d instructions, Len is %d", name, w, n, wt.Len)
		}
		total += n
		mems, lines := 0, 0
		for i, r := range wt.Runs {
			for pc := r.PC; pc < r.PC+int32(r.N); pc++ {
				if code[pc].IsGlobalMem() {
					if mems >= len(wt.Counts) {
						t.Fatalf("%s warp %d: run %d's pc %d has no line count left", name, w, i, pc)
					}
					lines += int(wt.Counts[mems])
					mems++
				}
			}
		}
		if mems != len(wt.Counts) || lines != len(wt.Lines) {
			t.Fatalf("%s warp %d: %d global memory instructions with %d lines, trace holds %d counts and %d lines",
				name, w, mems, lines, len(wt.Counts), len(wt.Lines))
		}
	}
	if total != bt.DynInsts {
		t.Fatalf("%s: warps hold %d instructions, DynInsts is %d", name, total, bt.DynInsts)
	}
}

func TestEmulatorMatchesOracle(t *testing.T) {
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
	partialMasks, divergent, aliased := 0, 0, 0
	for _, sh := range shapes {
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			l := &kernel.Launch{Grid: sh.grid, Block: sh.block}
			// Strides from packed windows up to 2 MB apart.
			g := globalSpan{base: defaultSpan.base, stride: oracleWindow << (seed % 16)}
			p := randProgram(rng, oracleOutBase, l.ThreadsPerBlock(), g, raiseSpec{})
			l.Kernel = p.k
			st := matchOracle(t, fmt.Sprintf("%s seed %d", sh.name, seed), l, p, g, sh.blocks)
			partialMasks += st.partialMasks
			divergent += st.divergent
			if len(st.raised) > 0 {
				t.Fatalf("%s seed %d: a program with no raising instruction raised %+v", sh.name, seed, st.raised[0])
			}

			for k := range p.segments {
				for _, in := range p.insts(k) {
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
		if op == isa.OpAtomGlobal {
			continue // atomics have their own tests
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
			t.Errorf("no random program made a %d-byte memory access", size)
		}
	}
	if partialMasks == 0 || divergent == 0 || aliased == 0 {
		t.Errorf("partial-mask instructions %d, divergent branches %d, aliased destinations %d: want all > 0",
			partialMasks, divergent, aliased)
	}
}

// TestEmulatorOracleExceptions runs programs that raise, one kind per
// program and the failing lanes from a varying lane up, sometimes
// under a predicate, and checks each warp's record against the
// oracle's. Every kind must be raised, by a lane above the warp's
// lowest active one too, and a load whose lanes straddle the end of a
// region must raise at the first lane past it.
func TestEmulatorOracleExceptions(t *testing.T) {
	l := &kernel.Launch{Grid: kernel.Dim3{X: 2}, Block: kernel.Dim3{X: 40, Y: 2}}
	kinds := make(map[excep.Kind]int)
	later, straddled := 0, 0
	for kind := raiseFloor; kind < numRaiseKinds; kind++ {
		for seed := int64(0); seed < 8; seed++ {
			x := raiseSpec{kind: kind, seg: int(seed), lane: int(seed*5) % 32, pred: -1}
			if seed%3 == 2 {
				x.pred = int(seed)
			}
			p := randProgram(rand.New(rand.NewSource(seed)), oracleOutBase, l.ThreadsPerBlock(), defaultSpan, x)
			l.Kernel = p.k
			st := matchOracle(t, fmt.Sprintf("kind %d seed %d", kind, seed), l, p, defaultSpan, []int{1, 0})
			for _, r := range st.raised {
				kinds[r.Kind]++
				if r.Lane > 0 {
					later++
				}
				if kind == raiseOutside && r.Lane > 0 && x.pred < 0 {
					straddled++
				}
			}
		}
	}
	for _, k := range []excep.Kind{excep.KindIllegalAddress, excep.KindMisaligned, excep.KindTrap, excep.KindAssert} {
		if kinds[k] == 0 {
			t.Errorf("no program raised %v", k)
		}
	}
	if later == 0 || straddled == 0 {
		t.Errorf("records raised by a lane above lane 0: %d, at a region's end: %d; want both > 0", later, straddled)
	}
}

// FuzzEmulatorOracle runs a random program from a fuzzed seed on a
// fuzzed launch shape (up to 4×3 blocks of up to 64×2 threads, so
// partial last warps and multi-warp blocks) with its global windows at
// a fuzzed base (16 MB plus up to 2^38 bytes) and lane stride (64 bytes
// plus up to 2^34), and checks two of its blocks against the per-thread
// oracle, the second on a recycled trace, and the run and line
// encoding of both traces. Far enough apart, a warp's lines no longer
// fit the trace's 32-bit line offsets, and the block must fail. xkind
// and xlane place a raising instruction (xkind%numRaiseKinds picks
// its kind, none at 0, and xkind/numRaiseKinds its segment; xlane%32
// is its first failing lane, and bit 5 of xlane predicates it on a
// pool register), whose records must be the oracle's.
func FuzzEmulatorOracle(f *testing.F) {
	f.Add(int64(0), uint8(1), uint8(0), uint8(31), uint8(0), uint8(0), uint8(1), uint64(0), uint64(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(2), uint8(1), uint8(19), uint8(2), uint8(4), uint8(1), uint64(1<<30), uint64(1<<20), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, gx, gy, bx, by, b0, b1 uint8, gbase, gstride uint64, xkind, xlane uint8) {
		l := &kernel.Launch{
			Grid:  kernel.Dim3{X: int(gx%4) + 1, Y: int(gy%3) + 1},
			Block: kernel.Dim3{X: int(bx%64) + 1, Y: int(by%2) + 1},
		}
		g := globalSpan{
			base:   defaultSpan.base + gbase%(1<<38)&^7,
			stride: oracleWindow + gstride%(1<<34)&^7,
		}
		x := raiseSpec{
			kind: raiseKind(xkind % uint8(numRaiseKinds)), seg: int(xkind / uint8(numRaiseKinds)),
			lane: int(xlane % 32), pred: -1,
		}
		if xlane&32 != 0 {
			x.pred = int(xlane >> 6)
		}
		p := randProgram(rand.New(rand.NewSource(seed)), oracleOutBase, l.ThreadsPerBlock(), g, x)
		l.Kernel = p.k
		n := l.Blocks()
		matchOracle(t, fmt.Sprintf("seed %d", seed), l, p, g, []int{int(b0) % n, int(b1) % n})
	})
}
