package sm

import (
	"testing"
	"unsafe"

	"gpues/internal/cache"
	"gpues/internal/clock"
	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/isa"
	"gpues/internal/kernel"
	"gpues/internal/tlb"
	"gpues/internal/vm"
)

// lazySink resolves every raised page a fixed delay later, as the
// first-touch allocation of a lazy page: the page is backed from then
// on. It allocates nothing per fault.
type lazySink struct {
	q       *clock.Queue
	lazy    map[uint64]bool // pages not backed yet
	delay   int64
	raised  int
	clients clock.Clients[clock.Handler]
}

func (ls *lazySink) Attach(resolved clock.Handler) int64 { return ls.clients.Add(resolved) }

func (ls *lazySink) RaiseFault(pageVA uint64, kind vm.FaultKind, smID int, waiter int64) int {
	ls.raised++
	delete(ls.lazy, pageVA)
	fn, arg := ls.clients.Get(waiter)
	ls.q.After(ls.delay, fn, arg)
	return 0
}

// oneBlock hands out a single block and ignores its completion.
type oneBlock struct {
	bt     *emu.BlockTrace
	handed bool
}

func (o *oneBlock) NextBlock(int) (*emu.BlockTrace, bool) {
	if o.handed {
		return nil, false
	}
	o.handed = true
	return o.bt, true
}
func (o *oneBlock) BlockDone(int, *emu.BlockTrace) {}
func (o *oneBlock) PendingBlocks() int {
	if o.handed {
		return 0
	}
	return 1
}

// endless hands out the same block forever and ignores completions.
type endless struct{ bt *emu.BlockTrace }

func (e endless) NextBlock(int) (*emu.BlockTrace, bool) { return e.bt, true }
func (endless) BlockDone(int, *emu.BlockTrace)          {}
func (endless) PendingBlocks() int                      { return 1 }

// faultLoopSM builds an SM running blocks of four warps, each a loop of
// loads from a fresh lazy page followed by an add that reads the
// loaded value, so every load faults once and is resolved through
// sink. The TLBs, fill unit and L1 are the real ones. The SM runs one
// block, or the same block over and over when again is set; the pages
// are backed once the first run has faulted them in.
func faultLoopSM(t *testing.T, scheme config.Scheme, loads int, again bool) (*SM, *clock.Queue, *lazySink) {
	t.Helper()
	const warps = 4
	cfg := config.Default()
	cfg.Scheme = scheme
	cfg.System.NumSMs = 1
	q := clock.New()
	sink := &lazySink{q: q, lazy: map[uint64]bool{}, delay: 100}

	ld := isa.NewInstruction(isa.OpLdGlobal)
	ld.Dst, ld.SrcA, ld.Size = 3, 2, 8
	add := isa.NewInstruction(isa.OpIAdd)
	add.Dst, add.SrcA, add.SrcB = 4, 3, isa.RZ
	code := []isa.Instruction{ld, add, isa.NewInstruction(isa.OpExit)}
	full := ^uint32(0)
	bt := &emu.BlockTrace{BlockID: 0}
	pageSize := uint64(cfg.System.PageSize)
	for w := 0; w < warps; w++ {
		for i := 0; i < loads; i++ {
			page := 0x1000_0000 + uint64(w*loads+i)*pageSize
			sink.lazy[page] = true
			bt.Append(w, 0, full, page)
			bt.Append(w, 1, full)
		}
		bt.Append(w, 2, full)
	}
	k := &kernel.Kernel{Name: "faultloop", Code: code, RegsPerThread: 16}
	launch := &kernel.Launch{Kernel: k, Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32 * warps}}

	fu, err := tlb.NewFillUnit(q, cfg.System.PTWalkers, int64(cfg.System.WalkLatency),
		func(pageVA uint64) tlb.Result {
			if sink.lazy[pageVA] {
				return tlb.Result{Fault: vm.FaultAllocOnly}
			}
			return tlb.Result{Present: true}
		})
	if err != nil {
		t.Fatal(err)
	}
	l2tlb, err := tlb.New(tlb.Config{Name: "l2tlb", Entries: 1024, Ways: 8, MSHRs: 128, Latency: 70},
		cfg.System.PageSize, q, fu)
	if err != nil {
		t.Fatal(err)
	}
	l1tlb, err := tlb.New(tlb.Config{Name: "l1tlb", Entries: 32, Ways: 8, Latency: 1},
		cfg.System.PageSize, q, l2tlb)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := cache.New(cache.Config{Name: "l1", SizeKB: 32, Ways: 4, LineB: 128, MSHRs: 32,
		Latency: 40, Policy: cache.WriteThrough}, q, &memBackend{q: q, latency: 70})
	if err != nil {
		t.Fatal(err)
	}
	var src BlockSource = &oneBlock{bt: bt}
	if again {
		src = endless{bt}
	}
	s := New(0, &cfg, q, l1, l1tlb, sink, src, nullMover{q})
	s.PrepareLaunch(launch)
	s.FillBlocks()
	return s, q, sink
}

// runFor drives the SM for the given number of cycles, skipping ahead
// while it sleeps.
func runFor(t *testing.T, s *SM, q *clock.Queue, cycles int64) {
	end := q.Now() + cycles
	for q.Now() < end && !s.Done() {
		if !s.Idle() {
			s.Tick()
			q.Step()
			continue
		}
		next, ok := q.NextEvent()
		if !ok {
			t.Fatalf("deadlock at cycle %d", q.Now())
		}
		q.SkipTo(min(next, end))
	}
}

// TestFaultPathSteadyStateAllocs: once an SM is warm, faulting memory
// instructions — raise, resolution, replay or re-translation, the TLB
// walk and the L1 access — run without a heap allocation, under the
// replay-queue scheme (squashAndRaise) and the baseline
// (stallOnFault).
func TestFaultPathSteadyStateAllocs(t *testing.T) {
	for _, scheme := range []config.Scheme{config.ReplayQueue, config.Baseline} {
		t.Run(scheme.String(), func(t *testing.T) {
			s, q, sink := faultLoopSM(t, scheme, 400, false)
			runFor(t, s, q, 20_000)
			before := sink.raised
			allocs := testing.AllocsPerRun(20, func() { runFor(t, s, q, 5_000) })
			if s.Done() {
				t.Fatal("the fault loop ran out during the measurement; lengthen it")
			}
			if sink.raised-before < 20 {
				t.Fatalf("only %d faults raised during the measurement", sink.raised-before)
			}
			if allocs != 0 {
				t.Fatalf("steady-state fault path allocates %v times per 5000 cycles, want 0", allocs)
			}
		})
	}
}

// TestBlockActivationAllocs: on a warm SM, running more blocks —
// activation, execution, completion and the trace's hand-back —
// allocates nothing: a finished block's activation record and warp
// records are freed in the SM's block table and the next block reuses them.
func TestBlockActivationAllocs(t *testing.T) {
	s, q, _ := faultLoopSM(t, config.ReplayQueue, 4, true)
	runFor(t, s, q, 20_000)
	before := s.Stats().BlocksRun
	allocs := testing.AllocsPerRun(20, func() { runFor(t, s, q, 2_000) })
	if n := s.Stats().BlocksRun - before; n < 20 {
		t.Fatalf("only %d blocks ran during the measurement", n)
	}
	if allocs != 0 {
		t.Fatalf("warm SM allocates %v times per 2000 cycles of block turnover, want 0", allocs)
	}
}

// TestRecordSizes pins the size of a coalesced request record, so that
// growing it is a visible decision: every pooled flight keeps one per
// line of the widest instruction it ran. It also pins that the warp
// fields the fetch and issue stages read for every candidate slot lie
// in the warp record's first 128 bytes, ahead of its 256-byte pendRead.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(memReq{}); n != 3 {
		t.Errorf("memReq is %d bytes, want 3", n)
	}
	var w warpRT
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"block", unsafe.Offsetof(w.block), unsafe.Sizeof(w.block)},
		{"trace", unsafe.Offsetof(w.trace), unsafe.Sizeof(w.trace)},
		{"buf", unsafe.Offsetof(w.buf), unsafe.Sizeof(w.buf)},
		{"bufReady", unsafe.Offsetof(w.bufReady), unsafe.Sizeof(w.bufReady)},
		{"pos", unsafe.Offsetof(w.pos), unsafe.Sizeof(w.pos)},
		{"fetchBlock", unsafe.Offsetof(w.fetchBlock), unsafe.Sizeof(w.fetchBlock)},
		{"atBarrier", unsafe.Offsetof(w.atBarrier), unsafe.Sizeof(w.atBarrier)},
		{"done", unsafe.Offsetof(w.done), unsafe.Sizeof(w.done)},
		{"faultsOutstanding", unsafe.Offsetof(w.faultsOutstanding), unsafe.Sizeof(w.faultsOutstanding)},
		{"inFlight", unsafe.Offsetof(w.inFlight), unsafe.Sizeof(w.inFlight)},
		{"replay", unsafe.Offsetof(w.replay), unsafe.Sizeof(w.replay)},
		{"fetchOwner", unsafe.Offsetof(w.fetchOwner), unsafe.Sizeof(w.fetchOwner)},
	} {
		if end := f.off + f.size; end > 128 {
			t.Errorf("warpRT.%s ends at byte %d, past the first 128", f.name, end)
		}
	}
	if off := unsafe.Offsetof(w.pendRead); off < 128 {
		t.Errorf("warpRT.pendRead starts at byte %d, inside the first 128", off)
	}
}
