package emu

import (
	"fmt"
	"math"
	"math/bits"

	"gpues/internal/excep"
	"gpues/internal/gpualloc"
	"gpues/internal/isa"
	"gpues/internal/kernel"
)

// DefaultMaxWarpInsts bounds the dynamic instructions emulated per warp,
// to turn runaway kernels into errors instead of hangs.
const DefaultMaxWarpInsts = 8 << 20

// IllegalFloor is the lowest legal global address: accesses below it
// (the null page and its surroundings; workloads place buffers at
// 16 MB+) raise a KindIllegalAddress device exception.
const IllegalFloor = 1 << 16

// HangError marks functional non-termination — a warp exceeding its
// dynamic instruction budget or a block deadlocking at a barrier. It
// is the functional analogue of a timing-watchdog hang and is
// classified as one by the resilience campaign (recover with
// errors.As).
type HangError struct{ msg string }

func (e *HangError) Error() string { return e.msg }

func hangErrorf(format string, args ...any) error {
	return &HangError{msg: fmt.Sprintf(format, args...)}
}

// Emulator executes thread blocks of a kernel launch functionally and
// produces their dynamic traces. One Emulator serves one launch; blocks
// may be emulated lazily in any order (the order becomes the observed
// inter-block interleaving for atomics).
type Emulator struct {
	launch   *kernel.Launch
	mem      *Memory
	lineSize uint64

	// MaxWarpInsts bounds the dynamic instruction count per warp.
	MaxWarpInsts int

	// AddrValid, when set, is the launch's address map: global accesses
	// to addresses it rejects raise an illegal-address exception, the
	// functional equivalent of an MMU fault on an unmapped VA. Unset,
	// only the IllegalFloor check applies (the timing layer still
	// aborts on unmapped accesses).
	AddrValid func(addr uint64) bool

	// Blocks are emulated one at a time, so one set of execution
	// scratch state serves every block: warp contexts (their 64 KB
	// register files and their trace buffers) and the shared-memory
	// buffer are pooled, and coalesced line addresses are carved out of
	// a chunked arena instead of one slice per instruction. A finished
	// block's traces are copied out into one exactly sized allocation;
	// that and the arena chunks escape into the returned BlockTrace,
	// while only state that does not escape is reused.
	ctxs      []*warpCtx
	sharedBuf []byte
	arena     []uint64
	// regSpan is one past the highest register the kernel names. No
	// instruction reads or writes a register above it, so a pooled
	// register file is reset by clearing only regs[:regSpan].
	regSpan int

	// flip is the armed bit-flip injector (zero = off); flips counts
	// the flips applied so far across all blocks.
	flip  excep.FlipConfig
	flips int64
	// heap backs OpMalloc when the launch declares a device heap.
	heap *gpualloc.Allocator
}

// arenaChunk is the allocation granule for coalesced line addresses.
const arenaChunk = 8192

// New returns an Emulator for the launch. lineSize is the cache line
// size used by the coalescing unit (128 B in the baseline).
func New(l *kernel.Launch, mem *Memory, lineSize int) (*Emulator, error) {
	if err := l.Kernel.Validate(); err != nil {
		return nil, err
	}
	if l.ThreadsPerBlock() <= 0 || l.ThreadsPerBlock() > 32*64 {
		return nil, fmt.Errorf("emu: block of %d threads unsupported", l.ThreadsPerBlock())
	}
	if l.Blocks() <= 0 {
		return nil, fmt.Errorf("emu: empty grid")
	}
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("emu: line size %d not a power of two", lineSize)
	}
	var heap *gpualloc.Allocator
	if l.HeapBytes > 0 {
		var err error
		if heap, err = gpualloc.New(l.HeapBase, l.HeapBytes); err != nil {
			return nil, err
		}
	}
	return &Emulator{
		launch:       l,
		mem:          mem,
		lineSize:     uint64(lineSize),
		MaxWarpInsts: DefaultMaxWarpInsts,
		regSpan:      regSpan(l.Kernel.Code),
		heap:         heap,
	}, nil
}

// regSpan returns one past the highest register named by any operand
// of code, RZ excluded.
func regSpan(code []isa.Instruction) int {
	n := 0
	for i := range code {
		in := &code[i]
		for _, r := range [...]isa.Reg{in.Dst, in.SrcA, in.SrcB, in.SrcC, in.Pred} {
			if r != isa.RegNone && r != isa.RZ && int(r) >= n {
				n = int(r) + 1
			}
		}
	}
	return n
}

// ConfigureFlips arms the bit-flip injector for the launch. Call
// before any block is emulated.
func (e *Emulator) ConfigureFlips(cfg excep.FlipConfig) { e.flip = cfg }

// Flips returns the number of bit flips injected so far. Blocks are
// emulated deterministically, so the count is seed-stable.
func (e *Emulator) Flips() int64 { return e.flips }

// Memory returns the functional memory the emulator executes against.
func (e *Emulator) Memory() *Memory { return e.mem }

// Launch returns the launch being emulated.
func (e *Emulator) Launch() *kernel.Launch { return e.launch }

type stackEntry struct {
	pc, rpc int32
	mask    uint32
}

// laneVec holds one register's value in each of the 32 lanes of a warp.
type laneVec = [32]uint64

// zeroVec is what RZ and RegNone read. Nothing writes it.
var zeroVec laneVec

type warpCtx struct {
	id int
	// regs is the register file, register-major: regs[r][lane]. A warp
	// instruction decodes its operands once and then walks each one as
	// 32 contiguous lanes.
	regs [isa.MaxRegs]laneVec
	// sink absorbs writes to RZ and RegNone; nothing reads it.
	sink      laneVec
	stack     []stackEntry
	exited    uint32
	threads   uint32 // lanes that hold live threads (partial last warp)
	atBarrier bool
	done      bool
	insts     int
	// trace collects the warp's instructions during the block; it is
	// copied out at the end, and the buffer is reused.
	trace []TraceInst

	// excep is the warp's raised exception, if any: the trace ends
	// just before the faulting instruction and the warp counts as done
	// (so barriers release, matching a killed warp in the SM).
	excep *excep.Record
	// flipAddrXor holds this instruction's transient address flips,
	// applied by execMem to the effective addresses of lanes in
	// flipAddrMask.
	flipAddrMask uint32
	flipAddrXor  [32]uint64
}

// src returns the lanes of source operand r.
func (w *warpCtx) src(r isa.Reg) *laneVec {
	if r == isa.RZ || r == isa.RegNone {
		return &zeroVec
	}
	return &w.regs[uint8(r)]
}

// dst returns the lanes that destination operand r writes.
func (w *warpCtx) dst(r isa.Reg) *laneVec {
	if r == isa.RZ || r == isa.RegNone {
		return &w.sink
	}
	return &w.regs[uint8(r)]
}

// lane returns the lowest lane set in the non-zero mask m. The & 31
// lets the compiler drop the bounds check on lanes indexing.
func lane(m uint32) int { return bits.TrailingZeros32(m) & 31 }

// EmulateBlock executes thread block blockID to completion and returns
// its trace. It is safe to call for each block exactly once per launch;
// global memory side effects accumulate in the shared Memory.
func (e *Emulator) EmulateBlock(blockID int) (*BlockTrace, error) {
	if blockID < 0 || blockID >= e.launch.Blocks() {
		return nil, fmt.Errorf("emu: block %d out of range [0,%d)", blockID, e.launch.Blocks())
	}
	threads := e.launch.ThreadsPerBlock()
	numWarps := (threads + 31) / 32
	sharedSize := e.launch.Kernel.SharedMemBytes
	if cap(e.sharedBuf) < sharedSize {
		e.sharedBuf = make([]byte, sharedSize)
	}
	shared := e.sharedBuf[:sharedSize]
	clear(shared)

	for len(e.ctxs) < numWarps {
		e.ctxs = append(e.ctxs, new(warpCtx))
	}
	warps := e.ctxs[:numWarps]
	for w := 0; w < numWarps; w++ {
		lanes := 32
		if rem := threads - w*32; rem < 32 {
			lanes = rem
		}
		var tm uint32
		if lanes == 32 {
			tm = ^uint32(0)
		} else {
			tm = (1 << lanes) - 1
		}
		ctx := warps[w]
		clear(ctx.regs[:e.regSpan])
		ctx.id = w
		ctx.stack = append(ctx.stack[:0], stackEntry{pc: 0, rpc: -2, mask: tm})
		ctx.exited = 0
		ctx.threads = tm
		ctx.atBarrier = false
		ctx.done = false
		ctx.insts = 0
		ctx.trace = ctx.trace[:0]
		ctx.excep = nil
		ctx.flipAddrMask = 0
	}

	bt := &BlockTrace{BlockID: blockID, Warps: make([]WarpTrace, numWarps)}
	// Round-robin warp execution, switching at barriers, until all warps
	// are done. A pass with no progress means a malformed barrier.
	for {
		allDone := true
		progress := false
		for _, w := range warps {
			if w.done {
				continue
			}
			allDone = false
			if w.atBarrier {
				continue
			}
			before := w.insts
			if err := e.runWarp(w, blockID, shared, bt); err != nil {
				return nil, fmt.Errorf("emu: block %d warp %d: %w", blockID, w.id, err)
			}
			if w.insts != before || w.done {
				progress = true
			}
		}
		if allDone {
			break
		}
		// Release the barrier once every live warp has arrived.
		arrived := true
		for _, w := range warps {
			if !w.done && !w.atBarrier {
				arrived = false
				break
			}
		}
		if arrived {
			for _, w := range warps {
				w.atBarrier = false
			}
			progress = true
		}
		if !progress {
			return nil, hangErrorf("emu: block %d deadlocked at a barrier (divergent __syncthreads?)", blockID)
		}
	}

	for _, ctx := range warps {
		bt.DynInsts += len(ctx.trace)
	}
	// Each warp's trace gets a capacity-capped window of one block-wide
	// slice, so an append to one cannot overwrite the next.
	all := make([]TraceInst, bt.DynInsts)
	for w, ctx := range warps {
		n := copy(all, ctx.trace)
		bt.Warps[w] = WarpTrace{WarpID: w, Insts: all[:n:n], Excep: ctx.excep}
		all = all[n:]
	}
	return bt, nil
}

// runWarp executes the warp until it exits or reaches a barrier. Each
// warp instruction is decoded once and executed for all its active
// lanes together; bt collects the block's global-memory counters as
// instructions are appended to the trace.
func (e *Emulator) runWarp(w *warpCtx, blockID int, shared []byte, bt *BlockTrace) error {
	code := e.launch.Kernel.Code
	for {
		if len(w.stack) == 0 {
			w.done = true
			return nil
		}
		top := &w.stack[len(w.stack)-1]
		if top.rpc >= 0 && top.pc == top.rpc {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		active := top.mask &^ w.exited
		if active == 0 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if top.pc < 0 || int(top.pc) >= len(code) {
			return fmt.Errorf("pc %d out of range", top.pc)
		}
		w.insts++
		max := e.MaxWarpInsts
		if max == 0 {
			max = DefaultMaxWarpInsts
		}
		if w.insts > max {
			return hangErrorf("exceeded %d dynamic instructions (runaway loop?)", max)
		}

		in := &code[top.pc]
		execMask := active
		if in.Pred != isa.RegNone {
			p := w.src(in.Pred)
			neg := boolVal(in.PredNeg)
			var pm uint32
			for m := active; m != 0; m &= m - 1 {
				l := lane(m)
				pm |= uint32((p[l]^neg)&1) << l
			}
			execMask = pm
		}
		if e.flip.Enabled() {
			execMask = e.injectFlips(w, in, active, execMask, blockID)
		}

		ti := TraceInst{PC: top.pc, Static: in, Mask: execMask}

		switch in.Op {
		case isa.OpBra:
			taken := execMask
			notTaken := active &^ taken
			w.trace = append(w.trace, ti)
			switch {
			case taken == 0:
				top.pc++
			case notTaken == 0:
				top.pc = in.Target
			default:
				if in.Reconv < 0 {
					// A divergent asserted-uniform branch is an emulator
					// invariant violation — except under fault injection,
					// where an injected flip corrupting the predicate is
					// the expected cause: there it models hardware
					// detecting control-flow corruption at a .uni branch
					// and raises a trap, so the campaign exercises the
					// exception path instead of aborting the simulator.
					if e.flip.Enabled() {
						minority := taken
						if bits.OnesCount32(notTaken) < bits.OnesCount32(taken) {
							minority = notTaken
						}
						e.raise(w, blockID, excep.KindTrap, top.pc, in, minority, 0,
							fmt.Sprintf("uniform branch diverged (taken=%08x)", taken))
						return nil
					}
					return fmt.Errorf("pc %d: branch asserted warp-uniform diverged (taken=%08x)", top.pc, taken)
				}
				fall := top.pc + 1
				top.mask = active
				top.pc = in.Reconv
				w.stack = append(w.stack,
					stackEntry{pc: fall, rpc: in.Reconv, mask: notTaken},
					stackEntry{pc: in.Target, rpc: in.Reconv, mask: taken},
				)
			}
			continue

		case isa.OpExit:
			w.trace = append(w.trace, ti)
			w.exited |= execMask
			top.pc++
			continue

		case isa.OpBar:
			w.trace = append(w.trace, ti)
			top.pc++
			w.atBarrier = true
			return nil

		case isa.OpLdGlobal, isa.OpStGlobal, isa.OpAtomGlobal, isa.OpLdShared, isa.OpStShared:
			if err := e.execMem(w, in, execMask, blockID, shared, &ti); err != nil {
				return fmt.Errorf("pc %d (%v): %w", top.pc, in, err)
			}
			if w.excep != nil {
				return nil
			}
			w.trace = append(w.trace, ti)
			if in.IsGlobalMem() {
				bt.GlobalAccesses++
				bt.MemRequests += len(ti.Lines)
			}
			top.pc++
			continue

		case isa.OpAssert:
			a := w.src(in.SrcA)
			var failed uint32
			for m := execMask; m != 0; m &= m - 1 {
				l := lane(m)
				if a[l] == 0 {
					failed |= 1 << l
				}
			}
			if failed != 0 {
				e.raise(w, blockID, excep.KindAssert, top.pc, in, failed, 0,
					fmt.Sprintf("assert %d failed on %d lane(s)", in.Imm, bits.OnesCount32(failed)))
				return nil
			}
			w.trace = append(w.trace, ti)
			top.pc++
			continue

		case isa.OpTrap:
			if execMask != 0 {
				e.raise(w, blockID, excep.KindTrap, top.pc, in, execMask, 0,
					fmt.Sprintf("trap %d", in.Imm))
				return nil
			}
			w.trace = append(w.trace, ti)
			top.pc++
			continue

		case isa.OpMalloc:
			e.execMalloc(w, in, execMask, blockID, top.pc)
			if w.excep != nil {
				return nil
			}
			w.trace = append(w.trace, ti)
			top.pc++
			continue

		default:
			e.execALU(w, in, execMask, blockID)
			w.trace = append(w.trace, ti)
			top.pc++
			continue
		}
	}
}

// raise builds the warp's exception record from its current divergence
// stack and retires the warp: the trace ends just before the faulting
// instruction, which therefore never reaches the timing pipeline, and
// the warp counts as done so block barriers release (the SM kills the
// warp the same way at delivery). lanes is the set of lanes the
// condition fired on; the report names the lowest.
func (e *Emulator) raise(w *warpCtx, blockID int, k excep.Kind, pc int32, in *isa.Instruction, lanes uint32, addr uint64, detail string) {
	frames := make([]excep.Frame, len(w.stack))
	for i, s := range w.stack {
		frames[i] = excep.Frame{PC: s.pc, RPC: s.rpc, Mask: s.mask}
	}
	if n := len(frames); n > 0 {
		// The top entry's pc is the faulting instruction itself.
		frames[n-1].PC = pc
	}
	w.excep = &excep.Record{
		Kind: k, Block: int32(blockID), Warp: int32(w.id),
		Lane: int32(bits.TrailingZeros32(lanes)),
		PC:   pc, Mnemonic: in.Op.Mnemonic(),
		Addr: addr, Detail: detail, Frames: frames,
	}
	w.done = true
}

// injectFlips applies this instruction's bit-flip decisions to the
// warp's architectural state: a source-register bit (persistent), the
// lane's participation bit (transient, the predicate flip), or — for
// memory instructions — an effective-address bit (transient, applied
// by execMem through flipAddrXor). Decisions are pure functions of the
// site, so reruns of the same seed flip identically.
func (e *Emulator) injectFlips(w *warpCtx, in *isa.Instruction, active, execMask uint32, blockID int) uint32 {
	for m := w.flipAddrMask; m != 0; m &= m - 1 {
		w.flipAddrXor[lane(m)] = 0
	}
	w.flipAddrMask = 0
	memOp := in.IsMem()
	inst := int32(w.insts)
	for m := active; m != 0; m &= m - 1 {
		l := lane(m)
		d, ok := e.flip.At(int32(blockID), int32(w.id), int32(l), inst, w.id*32+l, memOp)
		if !ok {
			continue
		}
		switch d.Target {
		case excep.TargetRegister:
			var srcs [4]isa.Reg
			n := 0
			for _, r := range [...]isa.Reg{in.SrcA, in.SrcB, in.SrcC, in.Pred} {
				if r != isa.RegNone && r != isa.RZ {
					srcs[n] = r
					n++
				}
			}
			if n == 0 {
				continue // no register state read here: the flip lands in unused space
			}
			w.regs[srcs[int(d.Src)%n]][l] ^= 1 << (d.Bit & 63)
		case excep.TargetPredicate:
			execMask ^= 1 << l
		case excep.TargetAddress:
			w.flipAddrXor[l] ^= 1 << (d.Bit & 63)
			w.flipAddrMask |= 1 << l
		}
		e.flips++
	}
	return execMask
}

// execMalloc serves a device-malloc instruction lane by lane; heap
// exhaustion (or a missing heap) raises KindDeviceOOM.
func (e *Emulator) execMalloc(w *warpCtx, in *isa.Instruction, mask uint32, blockID int, pc int32) {
	sizes, d := w.src(in.SrcA), w.dst(in.Dst)
	for m := mask; m != 0; m &= m - 1 {
		l := lane(m)
		size := in.Imm
		if in.SrcA != isa.RegNone && in.SrcA != isa.RZ {
			size = int64(sizes[l])
		}
		if e.heap == nil {
			e.raise(w, blockID, excep.KindDeviceOOM, pc, in, 1<<l, 0,
				"device malloc without a device heap")
			return
		}
		tid := blockID*e.launch.ThreadsPerBlock() + w.id*32 + l
		addr, err := e.heap.Alloc(tid, int(size))
		if err != nil {
			e.raise(w, blockID, excep.KindDeviceOOM, pc, in, 1<<l, 0, err.Error())
			return
		}
		d[l] = addr
	}
}

func f(v uint64) float64  { return math.Float64frombits(v) }
func fb(v float64) uint64 { return math.Float64bits(v) }
func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// execALU executes an ALU, SFU or special-register instruction for
// every lane in mask. The opcode and operands are decoded once; each
// case is a single loop over the active lanes. A lane reads only its
// own lane of each source before writing its own lane of the
// destination, so a destination that aliases a source is safe.
func (e *Emulator) execALU(w *warpCtx, in *isa.Instruction, mask uint32, blockID int) {
	a, b, c := w.src(in.SrcA), w.src(in.SrcB), w.src(in.SrcC)
	d := w.dst(in.Dst)
	imm := uint64(in.Imm)
	// immB reports whether the second operand is the immediate (IMul
	// and And take Rb when present, the immediate otherwise).
	immB := in.SrcB == isa.RZ || in.SrcB == isa.RegNone
	switch in.Op {
	case isa.OpIAdd:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = a[l] + b[l] + imm
		}
	case isa.OpISub:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = a[l] - b[l]
		}
	case isa.OpIMul:
		if immB {
			for m := mask; m != 0; m &= m - 1 {
				l := lane(m)
				d[l] = a[l] * imm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := lane(m)
				d[l] = a[l] * b[l]
			}
		}
	case isa.OpIMad:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = a[l]*b[l] + c[l]
		}
	case isa.OpIMin:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = uint64(min(int64(a[l]), int64(b[l])))
		}
	case isa.OpIMax:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = uint64(max(int64(a[l]), int64(b[l])))
		}
	case isa.OpShl:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = a[l] << ((b[l] + imm) & 63)
		}
	case isa.OpShr:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = a[l] >> ((b[l] + imm) & 63)
		}
	case isa.OpAnd:
		if immB {
			for m := mask; m != 0; m &= m - 1 {
				l := lane(m)
				d[l] = a[l] & imm
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := lane(m)
				d[l] = a[l] & b[l]
			}
		}
	case isa.OpOr:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = a[l] | b[l] | imm
		}
	case isa.OpXor:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = a[l] ^ b[l] ^ imm
		}
	case isa.OpMov:
		if in.SrcA == isa.RegNone {
			broadcast(d, mask, imm)
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := lane(m)
				d[l] = a[l]
			}
		}
	case isa.OpSetP:
		acc := accepts(in.Cmp)
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = boolVal(acc&iorder(int64(a[l]), int64(b[l])+in.Imm) != 0)
		}
	case isa.OpFAdd:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fb(f(a[l]) + f(b[l]))
		}
	case isa.OpFSub:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fb(f(a[l]) - f(b[l]))
		}
	case isa.OpFMul:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fb(f(a[l]) * f(b[l]))
		}
	case isa.OpFFma:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fb(math.FMA(f(a[l]), f(b[l]), f(c[l])))
		}
	case isa.OpFMin:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fb(math.Min(f(a[l]), f(b[l])))
		}
	case isa.OpFMax:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fb(math.Max(f(a[l]), f(b[l])))
		}
	case isa.OpFSetP:
		acc := accepts(in.Cmp)
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = boolVal(acc&forder(f(a[l]), f(b[l])) != 0)
		}
	case isa.OpI2F:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fb(float64(int64(a[l])))
		}
	case isa.OpF2I:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			if x := f(a[l]); math.IsNaN(x) {
				d[l] = 0
			} else {
				d[l] = uint64(int64(x))
			}
		}
	case isa.OpFRcp:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fb(1 / f(a[l]))
		}
	case isa.OpFSqrt:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fb(math.Sqrt(f(a[l])))
		}
	case isa.OpFRsqrt:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fb(1 / math.Sqrt(f(a[l])))
		}
	case isa.OpFExp:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fb(math.Exp2(f(a[l])))
		}
	case isa.OpFLog:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fb(math.Log2(f(a[l])))
		}
	case isa.OpFSin:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fb(math.Sin(f(a[l])))
		}
	case isa.OpFCos:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = fb(math.Cos(f(a[l])))
		}
	case isa.OpS2R:
		e.execS2R(w, isa.SReg(in.Imm), d, mask, blockID)
	case isa.OpLdParam:
		broadcast(d, mask, e.launch.Kernel.Params[in.Imm])
	default:
		// OpNop writes nothing; runWarp routes every other op elsewhere.
	}
}

// broadcast writes v to every lane of d in mask.
func broadcast(d *laneVec, mask uint32, v uint64) {
	for m := mask; m != 0; m &= m - 1 {
		d[lane(m)] = v
	}
}

// Comparison outcomes, as bits of an accept set: a compare instruction
// yields 1 when the outcome of its operands is in the set of its Cmp.
const (
	ordLT uint8 = 1 << iota
	ordEQ
	ordGT
	ordUnordered // a NaN operand
)

// accepts returns the outcomes for which c holds. Only NE holds on
// unordered (NaN) operands, as with Go's float comparisons.
func accepts(c isa.Cmp) uint8 {
	switch c {
	case isa.CmpEQ:
		return ordEQ
	case isa.CmpNE:
		return ordLT | ordGT | ordUnordered
	case isa.CmpLT:
		return ordLT
	case isa.CmpLE:
		return ordLT | ordEQ
	case isa.CmpGT:
		return ordGT
	case isa.CmpGE:
		return ordGT | ordEQ
	}
	return 0
}

func iorder(a, b int64) uint8 {
	switch {
	case a < b:
		return ordLT
	case a == b:
		return ordEQ
	}
	return ordGT
}

func forder(a, b float64) uint8 {
	switch {
	case a < b:
		return ordLT
	case a == b:
		return ordEQ
	case a > b:
		return ordGT
	}
	return ordUnordered
}

// execS2R reads special register s into d for every lane in mask. Only
// the thread and lane indices vary across lanes; the rest are
// broadcast.
func (e *Emulator) execS2R(w *warpCtx, s isa.SReg, d *laneVec, mask uint32, blockID int) {
	bdimX := e.launch.Block.X
	if bdimX == 0 {
		bdimX = 1
	}
	gdimX := e.launch.Grid.X
	if gdimX == 0 {
		gdimX = 1
	}
	base := w.id * 32
	var v uint64
	switch s {
	case isa.SRTidX:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = uint64((base + l) % bdimX)
		}
		return
	case isa.SRTidY:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = uint64((base + l) / bdimX)
		}
		return
	case isa.SRLaneID:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = uint64(l)
		}
		return
	case isa.SRCtaIDX:
		v = uint64(blockID % gdimX)
	case isa.SRCtaIDY:
		v = uint64(blockID / gdimX)
	case isa.SRNTidX:
		v = uint64(bdimX)
	case isa.SRNTidY:
		v = uint64(max(e.launch.Block.Y, 1))
	case isa.SRGridDimX:
		v = uint64(gdimX)
	case isa.SRGridDimY:
		v = uint64(max(e.launch.Grid.Y, 1))
	case isa.SRWarpID:
		v = uint64(w.id)
	}
	broadcast(d, mask, v)
}

// coalesceArena coalesces the per-lane accesses into line addresses
// backed by the emulator's arena: the worst-case entry count is
// reserved up front so the append inside coalesce never reallocates,
// and the arena advances past the entries actually produced. Retired
// chunks stay referenced by the traces that point into them and are
// collected when those traces are dropped.
func (e *Emulator) coalesceArena(addrs *[32]uint64, mask uint32, size int) []uint64 {
	span := int(uint64(size-1)/e.lineSize) + 2
	need := 32 * span
	if cap(e.arena)-len(e.arena) < need {
		n := arenaChunk
		if need > n {
			n = need
		}
		e.arena = make([]uint64, 0, n)
	}
	dst := coalesce(e.arena[len(e.arena):len(e.arena)], addrs, mask, size, e.lineSize)
	e.arena = e.arena[:len(e.arena)+len(dst)]
	return dst
}

// execMem executes a memory instruction for every lane in mask. The
// effective addresses are computed first; the exception checks, the
// accesses (so atomics and a block's stores interleave in lane order)
// and the error on an out-of-partition shared access then all run in
// ascending lane order.
func (e *Emulator) execMem(w *warpCtx, in *isa.Instruction, mask uint32, blockID int, shared []byte, ti *TraceInst) error {
	size := int(in.Size)
	var addrs [32]uint64
	base := w.src(in.SrcA)
	for m := mask; m != 0; m &= m - 1 {
		l := lane(m)
		addrs[l] = base[l] + uint64(in.Imm)
	}
	for m := w.flipAddrMask & mask; m != 0; m &= m - 1 {
		l := lane(m)
		addrs[l] ^= w.flipAddrXor[l]
	}
	if in.IsGlobalMem() {
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			a := addrs[l]
			if a < IllegalFloor {
				e.raise(w, blockID, excep.KindIllegalAddress, ti.PC, in, 1<<l, a,
					"global access below the mapped address space")
				return nil
			}
			if a&uint64(size-1) != 0 { // sizes are powers of two
				e.raise(w, blockID, excep.KindMisaligned, ti.PC, in, 1<<l, a,
					fmt.Sprintf("address not %d-byte aligned", size))
				return nil
			}
			if e.AddrValid != nil && !e.AddrValid(a) {
				e.raise(w, blockID, excep.KindIllegalAddress, ti.PC, in, 1<<l, a,
					"global access outside any mapped region")
				return nil
			}
		}
	}

	switch in.Op {
	case isa.OpLdShared:
		d := w.dst(in.Dst)
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			word, err := sharedWord(shared, addrs[l], size)
			if err != nil {
				return err
			}
			d[l] = getLE(word, size)
		}
	case isa.OpStShared:
		v := w.src(in.SrcB)
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			word, err := sharedWord(shared, addrs[l], size)
			if err != nil {
				return err
			}
			putLE(word, size, v[l])
		}
	case isa.OpLdGlobal:
		d := w.dst(in.Dst)
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = e.mem.Read(addrs[l], size)
		}
	case isa.OpStGlobal:
		v := w.src(in.SrcB)
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			e.mem.Write(addrs[l], size, v[l])
		}
	case isa.OpAtomGlobal:
		vs, cmps, d := w.src(in.SrcB), w.src(in.SrcC), w.dst(in.Dst)
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			v, cmp := vs[l], cmps[l]
			d[l] = e.mem.Atom(addrs[l], size, func(o uint64) (uint64, bool) {
				switch in.Atom {
				case isa.AtomAdd:
					return o + v, true
				case isa.AtomMax:
					if int64(v) > int64(o) {
						return v, true
					}
					return o, false
				case isa.AtomMin:
					if int64(v) < int64(o) {
						return v, true
					}
					return o, false
				case isa.AtomExch:
					return v, true
				case isa.AtomCAS:
					if o == cmp {
						return v, true
					}
					return o, false
				case isa.AtomAnd:
					return o & v, true
				case isa.AtomOr:
					return o | v, true
				}
				return o, false
			})
		}
	default:
		return fmt.Errorf("execMem: %v is not a memory op", in.Op)
	}
	if mask != 0 {
		ti.Lines = e.coalesceArena(&addrs, mask, size)
	}
	return nil
}

// sharedWord returns the size bytes of the shared partition at off, or
// an error when they do not lie wholly inside it. The check compares
// against the partition length minus size, so no sum can wrap.
func sharedWord(shared []byte, off uint64, size int) ([]byte, error) {
	n := uint64(len(shared))
	if uint64(size) > n || off > n-uint64(size) {
		return nil, fmt.Errorf("shared access at %d beyond %d B partition", off, len(shared))
	}
	return shared[off : off+uint64(size)], nil
}
