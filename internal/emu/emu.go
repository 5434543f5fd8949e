package emu

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

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
	// lineShift is log2(lineSize): a line's number is its address >>
	// lineShift, which is how traces store it.
	lineShift uint8
	// coalesced is the scratch one instruction's line addresses are
	// coalesced into before the warp's trace stores them.
	coalesced []uint64

	// MaxWarpInsts bounds the dynamic instruction count per warp.
	MaxWarpInsts int

	// AddrValid, when set, is the launch's address map: it reports
	// whether the addresses [lo, hi] all lie inside one mapped region.
	// A global access whose address it rejects raises an
	// illegal-address exception, the functional equivalent of an MMU
	// fault on an unmapped VA. Unset, only the IllegalFloor check
	// applies (the timing layer still aborts on unmapped accesses).
	AddrValid func(lo, hi uint64) bool

	// Blocks are emulated one at a time, so one set of execution
	// scratch state serves every block: warp contexts (their 64 KB
	// register files and their trace buffers) and the shared-memory
	// buffer. A finished block is copied out of the scratch into a
	// BlockTrace taken from free, the traces handed back by Release, or
	// into a new one. Release may run on another goroutine than
	// EmulateBlock (a dispatcher emulating ahead hands traces back from
	// the timing loop), so freeMu guards free.
	ctxs      []*warpCtx
	sharedBuf []byte
	freeMu    sync.Mutex
	free      []*BlockTrace
	// regSpan is one past the highest register the kernel names. No
	// instruction reads or writes a register above it, so a pooled
	// register file is reset by clearing only regs[:regSpan].
	regSpan int

	// flip is the armed bit-flip injector (zero = off); flips counts
	// the flips applied to the block being emulated.
	flip  excep.FlipConfig
	flips int
	// heap backs OpMalloc when the launch declares a device heap.
	heap *gpualloc.Allocator
}

// MaxBlockThreads is the largest block New accepts: 64 warps.
const MaxBlockThreads = 32 * 64

// New returns an Emulator for the launch. lineSize is the cache line
// size used by the coalescing unit (128 B in the baseline).
func New(l *kernel.Launch, mem *Memory, lineSize int) (*Emulator, error) {
	if err := l.Kernel.Validate(); err != nil {
		return nil, err
	}
	if l.ThreadsPerBlock() <= 0 || l.ThreadsPerBlock() > MaxBlockThreads {
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
		lineShift:    uint8(bits.TrailingZeros(uint(lineSize))),
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
	// traced counts the instructions in runs: insts less the one that
	// raised the warp's exception, if any.
	traced int
	// runs, counts and lines collect the warp's trace during the
	// block (see WarpTrace); lines are stored against lineBase, the
	// number of the warp's first line. They are copied out at the end,
	// and the buffers are reused.
	runs     []Run
	counts   []uint8
	lines    []uint32
	lineBase uint64

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

// push appends one executed instruction to the warp's runs.
func (w *warpCtx) push(pc int32, mask uint32) {
	w.runs = extend(w.runs, pc, mask)
	w.traced++
}

// lane returns the lowest lane set in the non-zero mask m. The & 31
// lets the compiler drop the bounds check on lanes indexing.
func lane(m uint32) int { return bits.TrailingZeros32(m) & 31 }

// EmulateBlock executes thread block blockID to completion and returns
// its trace. It is safe to call for each block exactly once per launch;
// global memory side effects accumulate in the shared Memory. The
// trace is the caller's until it hands it back with Release.
//
//simlint:noalloc
func (e *Emulator) EmulateBlock(blockID int) (*BlockTrace, error) {
	if blockID < 0 || blockID >= e.launch.Blocks() {
		//simlint:ignore noalloc error path
		return nil, fmt.Errorf("emu: block %d out of range [0,%d)", blockID, e.launch.Blocks())
	}
	threads := e.launch.ThreadsPerBlock()
	numWarps := (threads + 31) / 32
	sharedSize := e.launch.Kernel.SharedMemBytes
	if cap(e.sharedBuf) < sharedSize {
		//simlint:ignore noalloc sized once per launch
		e.sharedBuf = make([]byte, sharedSize)
	}
	shared := e.sharedBuf[:sharedSize]
	clear(shared)

	for len(e.ctxs) < numWarps {
		//simlint:ignore noalloc warp contexts are built once per launch
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
		ctx.traced = 0
		ctx.runs = ctx.runs[:0]
		ctx.counts = ctx.counts[:0]
		ctx.lines = ctx.lines[:0]
		ctx.lineBase = 0
		ctx.excep = nil
		ctx.flipAddrMask = 0
	}

	bt := e.takeTrace(blockID)
	e.flips = 0
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
				//simlint:ignore noalloc error path
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
			//simlint:ignore noalloc error path
			return nil, hangErrorf("emu: block %d deadlocked at a barrier (divergent __syncthreads?)", blockID)
		}
	}
	e.copyOut(bt, warps)
	bt.Flips = e.flips
	return bt, nil
}

// takeTrace returns an empty trace for block blockID: the last one
// handed back, or a new one.
//
//simlint:noalloc
func (e *Emulator) takeTrace(blockID int) *BlockTrace {
	e.freeMu.Lock()
	n := len(e.free)
	if n == 0 {
		e.freeMu.Unlock()
		//simlint:ignore noalloc the free list is empty until the first trace comes back
		return &BlockTrace{BlockID: blockID}
	}
	bt := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	e.freeMu.Unlock()
	bt.BlockID = blockID
	bt.GlobalAccesses, bt.MemRequests = 0, 0
	return bt
}

// copyOut moves the finished block's runs, line counts and lines out
// of the scratch state into bt, reusing its arrays when they are large
// enough. Each warp's Runs, Counts and Lines are capacity-capped
// windows of block-wide arrays, so an append to one cannot overwrite
// the next.
//
//simlint:noalloc
func (e *Emulator) copyOut(bt *BlockTrace, warps []*warpCtx) {
	dyn, nRuns, nCounts, nLines := 0, 0, 0, 0
	for _, ctx := range warps {
		dyn += ctx.traced
		nRuns += len(ctx.runs)
		nCounts += len(ctx.counts)
		nLines += len(ctx.lines)
	}
	if cap(bt.runs) < nRuns {
		//simlint:ignore noalloc growth to the largest block emulated so far
		bt.runs = make([]Run, nRuns)
	}
	if cap(bt.counts) < nCounts {
		//simlint:ignore noalloc growth to the largest block emulated so far
		bt.counts = make([]uint8, nCounts)
	}
	if cap(bt.lines) < nLines {
		//simlint:ignore noalloc growth to the largest block emulated so far
		bt.lines = make([]uint32, nLines)
	}
	if cap(bt.Warps) < len(warps) {
		//simlint:ignore noalloc sized once per launch
		bt.Warps = make([]WarpTrace, len(warps))
	}
	bt.Warps = bt.Warps[:len(warps)]
	runs, counts, lines := bt.runs[:nRuns], bt.counts[:nCounts], bt.lines[:nLines]
	for w, ctx := range warps {
		r, c, l := copy(runs, ctx.runs), copy(counts, ctx.counts), copy(lines, ctx.lines)
		bt.Warps[w] = WarpTrace{
			WarpID: w, Len: ctx.traced,
			Runs: runs[:r:r], Counts: counts[:c:c], Lines: lines[:l:l],
			Base: ctx.lineBase, shift: e.lineShift,
			Excep: ctx.excep,
		}
		runs, counts, lines = runs[r:], counts[c:], lines[l:]
	}
	bt.DynInsts = dyn
}

// Release hands a trace that EmulateBlock returned back to the
// emulator, whose next EmulateBlock reuses its arrays. The caller must
// hold no reference into it afterwards: not bt, not a slice of one of
// its WarpTraces. Exception records stay the caller's. Release is safe
// to call while another goroutine runs EmulateBlock.
//
//simlint:releases 0
//simlint:noalloc
func (e *Emulator) Release(bt *BlockTrace) {
	for i := range bt.Warps {
		bt.Warps[i] = WarpTrace{}
	}
	e.freeMu.Lock()
	e.free = append(e.free, bt)
	e.freeMu.Unlock()
}

// runWarp executes the warp until it exits or reaches a barrier. Each
// warp instruction is decoded once and executed for all its active
// lanes together; bt collects the block's global-memory counters as
// instructions are appended to the trace.
//
//simlint:noalloc
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
			//simlint:ignore noalloc error path
			return fmt.Errorf("pc %d out of range", top.pc)
		}
		w.insts++
		max := e.MaxWarpInsts
		if max == 0 {
			max = DefaultMaxWarpInsts
		}
		if w.insts > max {
			//simlint:ignore noalloc error path
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

		switch in.Op {
		case isa.OpBra:
			taken := execMask
			notTaken := active &^ taken
			w.push(top.pc, execMask)
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
							fmt.Sprintf("uniform branch diverged (taken=%08x)", taken)) //simlint:ignore noalloc exception path: the warp stops here
						return nil
					}
					//simlint:ignore noalloc error path
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
			w.push(top.pc, execMask)
			w.exited |= execMask
			top.pc++
			continue

		case isa.OpBar:
			w.push(top.pc, execMask)
			top.pc++
			w.atBarrier = true
			return nil

		case isa.OpLdGlobal, isa.OpStGlobal, isa.OpAtomGlobal, isa.OpLdShared, isa.OpStShared:
			start := len(w.lines)
			if err := e.execMem(w, in, execMask, blockID, shared, top.pc); err != nil {
				//simlint:ignore noalloc error path
				return fmt.Errorf("pc %d (%v): %w", top.pc, in, err)
			}
			if w.excep != nil {
				return nil
			}
			w.push(top.pc, execMask)
			// Only a global access has lines: the timing model gives a
			// shared access a fixed latency.
			if in.IsGlobalMem() {
				n := len(w.lines) - start
				w.counts = append(w.counts, uint8(n))
				bt.GlobalAccesses++
				bt.MemRequests += n
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
					fmt.Sprintf("assert %d failed on %d lane(s)", in.Imm, bits.OnesCount32(failed))) //simlint:ignore noalloc exception path: the warp stops here
				return nil
			}
			w.push(top.pc, execMask)
			top.pc++
			continue

		case isa.OpTrap:
			if execMask != 0 {
				e.raise(w, blockID, excep.KindTrap, top.pc, in, execMask, 0,
					fmt.Sprintf("trap %d", in.Imm)) //simlint:ignore noalloc exception path: the warp stops here
				return nil
			}
			w.push(top.pc, execMask)
			top.pc++
			continue

		case isa.OpMalloc:
			e.execMalloc(w, in, execMask, blockID, top.pc)
			if w.excep != nil {
				return nil
			}
			w.push(top.pc, execMask)
			top.pc++
			continue

		default:
			e.execALU(w, in, execMask, blockID)
			w.push(top.pc, execMask)
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
//
//simlint:noalloc
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

// Line offsets in a warp trace are 32-bit, line counts 8-bit and lines
// signed 32-bit line-number offsets from the warp's first line, so a
// warp's coalesced lines, one instruction's, and the span of a warp's
// lines are bounded.
var (
	errTooManyLines = errors.New("warp has more than 2^32 coalesced lines")
	errLineCount    = errors.New("instruction coalesces to more than 255 lines")
	errLineRange    = errors.New("coalesced line more than 2^31 lines from the warp's first")
)

// coalesceLines coalesces the per-lane accesses into line addresses
// and appends them to the warp's line buffer as offsets from its first
// line's number. The worst-case entry count is reserved up front, so
// coalesce's duplicate search sees only this instruction's lines and
// its appends never reallocate.
//
//simlint:noalloc
func (e *Emulator) coalesceLines(w *warpCtx, addrs *[32]uint64, mask uint32, size int) error {
	start := len(w.lines)
	need := 32 * (int(uint64(size-1)/e.lineSize) + 2)
	if uint64(start)+uint64(need) > math.MaxUint32 {
		return errTooManyLines
	}
	if cap(e.coalesced) < need {
		// Growth to the widest access emulated so far.
		e.coalesced = slices.Grow(e.coalesced, need)
	}
	if cap(w.lines)-start < need {
		// Growth to the longest warp trace emulated so far.
		w.lines = slices.Grow(w.lines, need)
	}
	lines := coalesce(e.coalesced[:0], addrs, mask, size, e.lineSize)
	if len(lines) > math.MaxUint8 {
		return errLineCount
	}
	if start == 0 && len(lines) > 0 {
		w.lineBase = lines[0] >> e.lineShift
	}
	for _, a := range lines {
		off, ok := lineOffset(a>>e.lineShift, w.lineBase)
		if !ok {
			return errLineRange
		}
		w.lines = append(w.lines, off)
	}
	return nil
}

// execMem executes a memory instruction for every lane in mask. The
// effective addresses are computed first. A global access is then
// checked once for the whole warp: its lowest and highest lane address
// against the floor and the address map, and every address's alignment.
// Only when that check fails do the per-lane checks run, in ascending
// lane order, so the lowest offending lane raises the same record as a
// check of each lane would. The accesses follow in ascending lane order
// (so atomics and a block's stores interleave in lane order), through
// one chunk lookup when every lane's bytes fall in one memory chunk. A
// shared access is bounds-checked once when its highest address fits
// the partition; otherwise each lane is checked, and the first one
// outside is an error. A global access appends its coalesced lines to
// the warp's line buffer; a shared access has none.
//
//simlint:noalloc
func (e *Emulator) execMem(w *warpCtx, in *isa.Instruction, mask uint32, blockID int, shared []byte, pc int32) error {
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
	lo, hi, bitsOr := ^uint64(0), uint64(0), uint64(0)
	for m := mask; m != 0; m &= m - 1 {
		a := addrs[lane(m)]
		lo, hi, bitsOr = min(lo, a), max(hi, a), bitsOr|a
	}
	global := in.IsGlobalMem()
	if global && mask != 0 && (lo < IllegalFloor || bitsOr&uint64(size-1) != 0 || // sizes are powers of two
		e.AddrValid != nil && !e.AddrValid(lo, hi)) && !e.checkLanes(w, in, &addrs, mask, blockID, pc) {
		return nil
	}
	// inShared holds when every lane's bytes lie inside the shared
	// partition, so no lane needs its own bounds check.
	inShared := uint64(size) <= uint64(len(shared)) && hi <= uint64(len(shared)-size)
	// oneChunk holds when every lane's bytes fall in one memory chunk;
	// hi+size-1 cannot wrap, since lo is at least IllegalFloor.
	oneChunk := global && mask != 0 && lo>>chunkBits == (hi+uint64(size)-1)>>chunkBits

	switch in.Op {
	case isa.OpLdShared:
		d := w.dst(in.Dst)
		if inShared {
			for m := mask; m != 0; m &= m - 1 {
				l := lane(m)
				d[l] = getLE(shared[addrs[l]:], size)
			}
			break
		}
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
		if inShared {
			for m := mask; m != 0; m &= m - 1 {
				l := lane(m)
				putLE(shared[addrs[l]:], size, v[l])
			}
			break
		}
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
		if oneChunk {
			c := e.mem.chunk(lo, false)
			if c == nil {
				broadcast(d, mask, 0)
				break
			}
			for m := mask; m != 0; m &= m - 1 {
				l := lane(m)
				d[l] = getLE(c[addrs[l]&(chunkSize-1):], size)
			}
			break
		}
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			d[l] = e.mem.Read(addrs[l], size)
		}
	case isa.OpStGlobal:
		v := w.src(in.SrcB)
		if oneChunk {
			c := e.mem.chunk(lo, true)
			for m := mask; m != 0; m &= m - 1 {
				l := lane(m)
				putLE(c[addrs[l]&(chunkSize-1):], size, v[l])
			}
			break
		}
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			e.mem.Write(addrs[l], size, v[l])
		}
	case isa.OpAtomGlobal:
		vs, cmps, d := w.src(in.SrcB), w.src(in.SrcC), w.dst(in.Dst)
		if oneChunk {
			// Like Memory.Atom, a lane that stores nothing materializes
			// no chunk.
			c := e.mem.chunk(lo, false)
			for m := mask; m != 0; m &= m - 1 {
				l := lane(m)
				off := addrs[l] & (chunkSize - 1)
				var old uint64
				if c != nil {
					old = getLE(c[off:], size)
				}
				if nv, store := atomApply(in.Atom, old, vs[l], cmps[l]); store {
					if c == nil {
						c = e.mem.chunk(lo, true)
					}
					putLE(c[off:], size, nv)
				}
				d[l] = old
			}
			break
		}
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			v, cmp := vs[l], cmps[l]
			//simlint:ignore noalloc the closure does not escape Memory.Atom (go build -gcflags=-m), so it lives on the stack
			d[l] = e.mem.Atom(addrs[l], size, func(o uint64) (uint64, bool) { return atomApply(in.Atom, o, v, cmp) })
		}
	default:
		//simlint:ignore noalloc error path
		return fmt.Errorf("execMem: %v is not a memory op", in.Op)
	}
	if global && mask != 0 {
		return e.coalesceLines(w, &addrs, mask, size)
	}
	return nil
}

// checkLanes runs a global access's exception checks lane by lane, in
// ascending lane order: the floor, the alignment, then the address map.
// The first lane that fails one raises the warp's exception, and
// checkLanes reports false; it reports true when every lane passes (a
// warp whose lanes span two regions fails the warp-wide check alone).
func (e *Emulator) checkLanes(w *warpCtx, in *isa.Instruction, addrs *[32]uint64, mask uint32, blockID int, pc int32) bool {
	size := uint64(in.Size)
	for m := mask; m != 0; m &= m - 1 {
		l := lane(m)
		a := addrs[l]
		switch {
		case a < IllegalFloor:
			e.raise(w, blockID, excep.KindIllegalAddress, pc, in, 1<<l, a,
				"global access below the mapped address space")
		case a&(size-1) != 0:
			e.raise(w, blockID, excep.KindMisaligned, pc, in, 1<<l, a,
				fmt.Sprintf("address not %d-byte aligned", size))
		case e.AddrValid != nil && !e.AddrValid(a, a):
			e.raise(w, blockID, excep.KindIllegalAddress, pc, in, 1<<l, a,
				"global access outside any mapped region")
		default:
			continue
		}
		return false
	}
	return true
}

// atomApply is atomic op's read-modify-write on the old value o with
// operand v (and compare value cmp for CAS): the value to store, and
// whether to store it.
func atomApply(op isa.AtomOp, o, v, cmp uint64) (uint64, bool) {
	switch op {
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
