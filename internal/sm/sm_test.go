package sm

import (
	"fmt"
	"math"
	"testing"

	"gpues/internal/cache"
	"gpues/internal/clock"
	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/isa"
	"gpues/internal/kernel"
	"gpues/internal/tlb"
	"gpues/internal/vm"
)

// ---- test harness -----------------------------------------------------

// harness wires one SM to a real L1/L2/TLB/fill-unit chain with a
// controllable set of faulting pages and a manually-resolved fault sink.
type harness struct {
	t     *testing.T
	q     *clock.Queue
	cfg   config.Config
	sm    *SM
	sink  *fakeSink
	src   *fakeSource
	fault map[uint64]vm.FaultKind // pages that fault until resolved
	ev    map[string]int64        // "kind:tIdx" -> cycle (warp 0)
	evs   []string
}

type fakeSink struct {
	h       *harness
	raised  []uint64
	pending []func()
	pos     int
	clients clock.Clients[clock.Handler]
}

func (fs *fakeSink) Attach(resolved clock.Handler) int64 { return fs.clients.Add(resolved) }

func (fs *fakeSink) RaiseFault(pageVA uint64, kind vm.FaultKind, smID int, waiter int64) int {
	fs.raised = append(fs.raised, pageVA)
	page := pageVA
	fs.pending = append(fs.pending, func() {
		delete(fs.h.fault, page)
		fn, arg := fs.clients.Get(waiter)
		fn(arg)
	})
	fs.pos++
	return fs.pos
}

// resolveAll resolves every pending fault after delay cycles.
func (fs *fakeSink) resolveAll(delay int64) {
	ps := fs.pending
	fs.pending = nil
	fs.h.q.After(delay, func(int64) {
		for _, p := range ps {
			p()
		}
	}, 0)
}

type fakeSource struct {
	blocks []*emu.BlockTrace
	next   int
	done   int
}

func (fs *fakeSource) NextBlock(smID int) (*emu.BlockTrace, bool) {
	if fs.next >= len(fs.blocks) {
		return nil, false
	}
	bt := fs.blocks[fs.next]
	fs.next++
	return bt, true
}
func (fs *fakeSource) PendingBlocks() int { return len(fs.blocks) - fs.next }

// BlockDone poisons the trace handed back, so an SM that reads a trace
// after handing it back fails loudly: a PC out of any kernel indexes
// past the decode table, a zero mask, sentinel lines and line counts
// that overrun the lines corrupt what a stale read would compute.
func (fs *fakeSource) BlockDone(smID int, bt *emu.BlockTrace) {
	fs.done++
	for k := range bt.Warps {
		w := &bt.Warps[k]
		for i := range w.Runs {
			w.Runs[i].PC, w.Runs[i].Mask = math.MaxInt32, 0
		}
		for i := range w.Counts {
			w.Counts[i] = math.MaxUint8
		}
		for i := range w.Lines {
			w.Lines[i] = 0
		}
		w.Base = poisonLine
	}
}

// poisonLine is the line address a handed-back trace carries: a
// hand-built trace stores byte addresses, so it is every line's
// decoded address.
const poisonLine = 0xdead_0000_0000

type nullMover struct{ q *clock.Queue }

func (m nullMover) Move(bytes int, done clock.Event) { m.q.After(10, done.Fn, done.Arg) }

func newHarness(t *testing.T, scheme config.Scheme, blocks []*emu.BlockTrace, launch *kernel.Launch) *harness {
	return newHarnessCfg(t, scheme, blocks, launch, nil)
}

// newHarnessCfg lets a test adjust the configuration before the SM is
// prepared and filled.
func newHarnessCfg(t *testing.T, scheme config.Scheme, blocks []*emu.BlockTrace,
	launch *kernel.Launch, mutate func(*config.Config)) *harness {
	t.Helper()
	cfg := config.Default()
	cfg.Scheme = scheme
	if mutate != nil {
		mutate(&cfg)
	}
	cfg.System.NumSMs = 1
	h := &harness{
		t:     t,
		q:     clock.New(),
		cfg:   cfg,
		fault: map[uint64]vm.FaultKind{},
		ev:    map[string]int64{},
	}
	h.sink = &fakeSink{h: h}
	h.src = &fakeSource{blocks: blocks}

	fu, err := tlb.NewFillUnit(h.q, cfg.System.PTWalkers, int64(cfg.System.WalkLatency),
		func(pageVA uint64) tlb.Result {
			if k, ok := h.fault[pageVA]; ok {
				return tlb.Result{Fault: k}
			}
			return tlb.Result{Present: true}
		})
	if err != nil {
		t.Fatal(err)
	}
	l2tlb, err := tlb.New(tlb.Config{Name: "l2tlb", Entries: 1024, Ways: 8, MSHRs: 128, Latency: 70},
		cfg.System.PageSize, h.q, fu)
	if err != nil {
		t.Fatal(err)
	}
	l1tlb, err := tlb.New(tlb.Config{Name: "l1tlb", Entries: 32, Ways: 8, Latency: 1},
		cfg.System.PageSize, h.q, l2tlb)
	if err != nil {
		t.Fatal(err)
	}
	l2be := &memBackend{q: h.q, latency: 70}
	l1, err := cache.New(cache.Config{Name: "l1", SizeKB: 32, Ways: 4, LineB: 128, MSHRs: 32,
		Latency: 40, Policy: cache.WriteThrough}, h.q, l2be)
	if err != nil {
		t.Fatal(err)
	}

	h.sm = New(0, &h.cfg, h.q, l1, l1tlb, h.sink, h.src, nullMover{h.q})
	h.sm.OnEvent = func(kind string, warp int, tIdx int32, cycle int64) {
		if warp == 0 {
			key := fmt.Sprintf("%s:%d", kind, tIdx)
			if _, seen := h.ev[key]; !seen {
				h.ev[key] = cycle
			}
			h.evs = append(h.evs, fmt.Sprintf("%s@%d", key, cycle))
		}
	}
	h.sm.PrepareLaunch(launch)
	h.sm.FillBlocks()
	return h
}

type memBackend struct {
	q       *clock.Queue
	latency int64
}

func (b *memBackend) Fetch(addr uint64, done clock.Event) bool {
	b.q.After(b.latency, done.Fn, done.Arg)
	return true
}
func (b *memBackend) Write(addr uint64) { b.q.Mark(b.q.Now() + b.latency) }

// run drives the SM until it is done or maxCycles pass.
func (h *harness) run(maxCycles int64) {
	for h.q.Now() < maxCycles {
		if h.sm.Done() {
			return
		}
		if !h.sm.Idle() {
			h.sm.Tick()
			h.q.Step()
		} else {
			next, ok := h.q.NextEvent()
			if !ok {
				h.t.Fatalf("deadlock at cycle %d (events: %v)", h.q.Now(), h.evs)
			}
			h.q.SkipTo(next)
		}
	}
	h.t.Fatalf("SM did not finish within %d cycles", maxCycles)
}

// at returns the recorded cycle of an event, failing if absent.
func (h *harness) at(kind string, tIdx int) int64 {
	c, ok := h.ev[fmt.Sprintf("%s:%d", kind, tIdx)]
	if !ok {
		h.t.Fatalf("event %s:%d never happened; log: %v", kind, tIdx, h.evs)
	}
	return c
}

// ---- the paper's example program (Figure 3) ---------------------------

// figure3Trace builds the 4-instruction example of Section 2.5 plus an
// exit:
//
//	A (0): R3 <- ld [R2]
//	B (1): R9 <- sub R9, 4
//	C (2): R8 <- ld [R4]
//	D (3): R4 <- add R7, 8
//	  (4): exit
//
// A and C load from distinct pages so their faults are independent.
func figure3Trace() (*emu.BlockTrace, *kernel.Launch, []isa.Instruction) {
	return figure3TraceAt(0x10000, 0x20000)
}

// figure3TraceAt is figure3Trace with A loading line a and C line c.
func figure3TraceAt(a, c uint64) (*emu.BlockTrace, *kernel.Launch, []isa.Instruction) {
	code := make([]isa.Instruction, 5)
	ldA := isa.NewInstruction(isa.OpLdGlobal)
	ldA.Dst, ldA.SrcA, ldA.Size = 3, 2, 8
	code[0] = ldA
	sub := isa.NewInstruction(isa.OpISub)
	sub.Dst, sub.SrcA, sub.SrcB = 9, 9, isa.RZ
	code[1] = sub
	ldC := isa.NewInstruction(isa.OpLdGlobal)
	ldC.Dst, ldC.SrcA, ldC.Size = 8, 4, 8
	code[2] = ldC
	add := isa.NewInstruction(isa.OpIAdd)
	add.Dst, add.SrcA, add.SrcB, add.Imm = 4, 7, isa.RZ, 8
	code[3] = add
	code[4] = isa.NewInstruction(isa.OpExit)

	full := ^uint32(0)
	bt := &emu.BlockTrace{BlockID: 0}
	bt.Append(0, 0, full, a)
	bt.Append(0, 1, full)
	bt.Append(0, 2, full, c)
	bt.Append(0, 3, full)
	bt.Append(0, 4, full)
	k := &kernel.Kernel{Name: "fig3", Code: code, RegsPerThread: 16}
	launch := &kernel.Launch{Kernel: k, Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}}
	return bt, launch, code
}

const (
	iA = 0
	iB = 1
	iC = 2
	iD = 3
)

// TestTimelineBaseline reproduces the orderings of Figure 3: B and D
// issue right behind their predecessors (source scoreboards release at
// operand read) and commit out of order, before the loads.
func TestTimelineBaseline(t *testing.T) {
	bt, launch, _ := figure3Trace()
	h := newHarness(t, config.Baseline, []*emu.BlockTrace{bt}, launch)
	h.run(100000)

	if got := h.at("issue", iB) - h.at("issue", iA); got != 1 {
		t.Errorf("B issued %d cycles after A, want 1", got)
	}
	// D's WAR on R4 clears at C's operand read: at most a couple of
	// cycles after C issues.
	if got := h.at("issue", iD) - h.at("issue", iC); got > 3 {
		t.Errorf("D issued %d cycles after C, want <= 3 (early source release)", got)
	}
	// Out-of-order commit: B and D retire before the loads.
	if h.at("commit", iB) >= h.at("commit", iA) {
		t.Error("B must commit before load A (out-of-order commit)")
	}
	if h.at("commit", iD) >= h.at("commit", iC) {
		t.Error("D must commit before load C")
	}
}

// TestTimelineWarpDisableCommit reproduces Figure 4: after fetching load
// A the warp fetches nothing until A commits.
func TestTimelineWarpDisableCommit(t *testing.T) {
	bt, launch, _ := figure3Trace()
	h := newHarness(t, config.WarpDisableCommit, []*emu.BlockTrace{bt}, launch)
	h.run(100000)

	if h.at("fetch", iB) < h.at("commit", iA) {
		t.Errorf("B fetched at %d, before A committed at %d", h.at("fetch", iB), h.at("commit", iA))
	}
	if h.at("fetch", iD) < h.at("commit", iC) {
		t.Errorf("D fetched before C committed")
	}
}

// TestTimelineWarpDisableLastCheck: fetch resumes at A's last TLB check,
// strictly before A's commit (the data access is still in flight).
func TestTimelineWarpDisableLastCheck(t *testing.T) {
	bt, launch, _ := figure3Trace()
	h := newHarness(t, config.WarpDisableLastCheck, []*emu.BlockTrace{bt}, launch)
	h.run(100000)

	if h.at("fetch", iB) < h.at("lastcheck", iA) {
		t.Errorf("B fetched at %d, before A's last TLB check at %d",
			h.at("fetch", iB), h.at("lastcheck", iA))
	}
	if h.at("fetch", iB) >= h.at("commit", iA) {
		t.Errorf("B fetched at %d, not before A's commit at %d (should beat wd-commit)",
			h.at("fetch", iB), h.at("commit", iA))
	}
}

// TestTimelineReplayQueue reproduces Figure 6: A, B, C issue back to
// back, but D's WAR on R4 holds until C's last TLB check.
func TestTimelineReplayQueue(t *testing.T) {
	bt, launch, _ := figure3Trace()
	h := newHarness(t, config.ReplayQueue, []*emu.BlockTrace{bt}, launch)
	h.run(100000)

	if got := h.at("issue", iB) - h.at("issue", iA); got != 1 {
		t.Errorf("B issued %d cycles after A, want 1 (no instruction barrier)", got)
	}
	if h.at("issue", iD) < h.at("lastcheck", iC) {
		t.Errorf("D issued at %d, before C's last TLB check at %d (RAW-on-replay guard)",
			h.at("issue", iD), h.at("lastcheck", iC))
	}
	if h.at("commit", iB) >= h.at("commit", iA) {
		t.Error("B must still commit out of order")
	}
}

// TestTimelineOperandLog reproduces Figure 7: the log restores the
// baseline's early source release, so D issues right after C's operand
// read — long before C's last TLB check.
func TestTimelineOperandLog(t *testing.T) {
	bt, launch, _ := figure3Trace()
	h := newHarness(t, config.OperandLog, []*emu.BlockTrace{bt}, launch)
	h.run(100000)

	if got := h.at("issue", iD) - h.at("issue", iC); got > 3 {
		t.Errorf("D issued %d cycles after C, want <= 3 (log enables early release)", got)
	}
	if h.at("issue", iD) >= h.at("lastcheck", iC) {
		t.Error("operand log must not delay D to C's last TLB check")
	}
}

// ---- fault behaviour ---------------------------------------------------

// TestFaultSquashAndReplay: load C faults; it must be squashed and
// replayed after resolution, while committed instructions (B, D under
// operand log) are not replayed.
func TestFaultSquashAndReplay(t *testing.T) {
	for _, scheme := range []config.Scheme{
		config.WarpDisableCommit, config.WarpDisableLastCheck,
		config.ReplayQueue, config.OperandLog,
	} {
		t.Run(scheme.String(), func(t *testing.T) {
			bt, launch, _ := figure3Trace()
			h := newHarness(t, scheme, []*emu.BlockTrace{bt}, launch)
			h.fault[0x20000] = vm.FaultMigrate // C's page

			// Drive until the fault is raised, then resolve it.
			for len(h.sink.pending) == 0 {
				if !h.sm.Idle() {
					h.sm.Tick()
					h.q.Step()
				} else {
					next, ok := h.q.NextEvent()
					if !ok {
						t.Fatalf("deadlock before fault; log %v", h.evs)
					}
					h.q.SkipTo(next)
				}
				if h.q.Now() > 100000 {
					t.Fatal("fault never raised")
				}
			}
			h.sink.resolveAll(1000)
			h.run(200000)

			if h.at("squash", iC) == 0 {
				t.Error("C never squashed")
			}
			st := h.sm.Stats()
			if st.Squashed != 1 {
				t.Errorf("squashed = %d, want 1", st.Squashed)
			}
			if st.Replays != 1 {
				t.Errorf("replays = %d, want 1 (sparse replay: only C)", st.Replays)
			}
			// All five instructions committed exactly once.
			if st.Committed != 5 {
				t.Errorf("committed = %d, want 5", st.Committed)
			}
			// The replay of C must come after resolution.
			if h.at("commit", iC) < h.at("squash", iC) {
				t.Error("C committed before its squash resolved")
			}
		})
	}
}

// TestBaselineFaultStalls: under the baseline the faulting load is never
// squashed; it completes after resolution.
func TestBaselineFaultStalls(t *testing.T) {
	bt, launch, _ := figure3Trace()
	h := newHarness(t, config.Baseline, []*emu.BlockTrace{bt}, launch)
	h.fault[0x20000] = vm.FaultMigrate

	for len(h.sink.pending) == 0 {
		if !h.sm.Idle() {
			h.sm.Tick()
			h.q.Step()
		} else {
			next, ok := h.q.NextEvent()
			if !ok {
				t.Fatal("deadlock before fault")
			}
			h.q.SkipTo(next)
		}
	}
	h.sink.resolveAll(5000)
	h.run(200000)

	st := h.sm.Stats()
	if st.Squashed != 0 || st.Replays != 0 {
		t.Errorf("baseline squashed=%d replays=%d, want 0", st.Squashed, st.Replays)
	}
	if st.Committed != 5 {
		t.Errorf("committed = %d, want 5", st.Committed)
	}
	// The fault cost is visible in C's commit time.
	if h.at("commit", iC) < 5000 {
		t.Errorf("C committed at %d, before the fault resolved", h.at("commit", iC))
	}
}

// TestWarpDisableSingleInFlight: under wd-commit, when C faults it is
// the only in-flight instruction of the warp.
func TestWarpDisableSingleInFlight(t *testing.T) {
	bt, launch, _ := figure3Trace()
	h := newHarness(t, config.WarpDisableCommit, []*emu.BlockTrace{bt}, launch)
	h.fault[0x10000] = vm.FaultMigrate // A's page
	var inFlightAtSquash int
	h.sm.OnEvent = func(kind string, warp int, tIdx int32, cycle int64) {
		if kind == "squash" {
			// The squash event fires while the faulting instruction
			// still counts as in flight; nothing else may be.
			inFlightAtSquash = h.sm.warps[0].inFlight
		}
	}
	for len(h.sink.pending) == 0 {
		if !h.sm.Idle() {
			h.sm.Tick()
			h.q.Step()
		} else {
			next, _ := h.q.NextEvent()
			h.q.SkipTo(next)
		}
	}
	h.sink.resolveAll(100)
	h.run(200000)
	if inFlightAtSquash != 1 {
		t.Errorf("in-flight at squash = %d, want 1 (only the faulting instruction)", inFlightAtSquash)
	}
}

// TestOperandLogBackpressure: a one-entry log partition forces memory
// instructions of a block to issue one at a time.
func TestOperandLogBackpressure(t *testing.T) {
	bt, launch, _ := figure3Trace()
	// Shrink the log so each block partition holds a single entry
	// (16 resident blocks, 16 entries total).
	h := newHarnessCfg(t, config.OperandLog, []*emu.BlockTrace{bt}, launch,
		func(cfg *config.Config) {
			cfg.SM.OperandLog = config.OperandLogConfig{SizeKB: 4, EntryBytes: 256}
		})
	h.run(200000)
	// With one entry, C cannot issue until A's entry frees at A's last
	// TLB check.
	if h.at("issue", iC) < h.at("lastcheck", iA) {
		t.Errorf("C issued at %d before A's last check at %d despite a full log",
			h.at("issue", iC), h.at("lastcheck", iA))
	}
	if h.sm.Stats().IssueStallLog == 0 {
		t.Error("no log-full stalls recorded")
	}
}

// TestBlockSwitchingLifecycle: a fault above the threshold switches the
// block out; a pending block runs; the faulted block restores and
// finishes.
func TestBlockSwitchingLifecycle(t *testing.T) {
	bt1, launch, _ := figure3Trace()
	// Block 2's loads hit different, non-faulting pages.
	bt2, _, _ := figure3TraceAt(0x50000, 0x60000)
	bt2.BlockID = 1
	launch.Grid = kernel.Dim3{X: 2}

	// Occupancy 1 (one resident block) so the second block only runs
	// via switching.
	h := newHarnessCfg(t, config.ReplayQueue, []*emu.BlockTrace{bt1, bt2}, launch,
		func(cfg *config.Config) {
			cfg.Scheduler = config.SchedulerConfig{
				Enabled:         true,
				MaxExtraBlocks:  4,
				SwitchThreshold: 0,
			}
			cfg.SM.MaxThreadBlocks = 1
		})
	h.fault[0x10000] = vm.FaultMigrate

	for len(h.sink.pending) == 0 {
		if !h.sm.Idle() {
			h.sm.Tick()
			h.q.Step()
		} else {
			next, ok := h.q.NextEvent()
			if !ok {
				t.Fatal("deadlock before fault")
			}
			h.q.SkipTo(next)
		}
	}
	h.sink.resolveAll(20000)
	h.run(500000)

	st := h.sm.Stats()
	if st.SwitchesOut < 1 {
		t.Errorf("switches out = %d, want >= 1", st.SwitchesOut)
	}
	if st.SwitchesIn < 1 {
		t.Errorf("switches in = %d, want >= 1 (faulted block restored)", st.SwitchesIn)
	}
	if h.src.done != 2 {
		t.Errorf("blocks completed = %d, want 2", h.src.done)
	}
	if st.ContextBytes == 0 {
		t.Error("context switching moved no bytes")
	}
}

// TestOccupancyPartitioning checks PrepareLaunch's occupancy and log
// partitioning.
func TestOccupancyPartitioning(t *testing.T) {
	_, launch, _ := figure3Trace()
	cfg := config.Default()
	cfg.Scheme = config.OperandLog
	q := clock.New()
	m := &SM{cfg: &cfg, q: q} // no memory path: PrepareLaunch reads only the config
	m.PrepareLaunch(launch)
	// 32-thread blocks, 16 regs: occupancy capped by MaxThreadBlocks=16.
	if m.Occupancy() != 16 {
		t.Errorf("occupancy = %d, want 16", m.Occupancy())
	}
	// 16KB log / 256B entries = 64 entries / 16 blocks = 4 each.
	if m.logPerBlock != 4 {
		t.Errorf("log per block = %d, want 4", m.logPerBlock)
	}
}
