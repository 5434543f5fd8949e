package sm

import (
	"testing"

	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/kernel"
	"gpues/internal/vm"
)

// Unit tests for the local scheduler's decision logic (use case 1).

// switchHarness builds a harness with switching enabled, occupancy 1
// and the given number of blocks, with A's page faulting.
func switchHarness(t *testing.T, blocks int, mut func(*config.Config)) *harness {
	t.Helper()
	var traces []*emu.BlockTrace
	var launch *kernel.Launch
	for i := 0; i < blocks; i++ {
		a, c := uint64(0x10000), uint64(0x20000)
		if i > 0 {
			// Later blocks touch distinct, non-faulting pages.
			a, c = uint64(0x100000+i*0x1000), uint64(0x200000+i*0x1000)
		}
		bt, l, _ := figure3TraceAt(a, c)
		bt.BlockID = i
		launch = l
		traces = append(traces, bt)
	}
	launch.Grid = kernel.Dim3{X: blocks}
	h := newHarnessCfg(t, config.ReplayQueue, traces, launch, func(cfg *config.Config) {
		cfg.Scheduler = config.SchedulerConfig{
			Enabled:         true,
			MaxExtraBlocks:  4,
			SwitchThreshold: 0,
		}
		cfg.SM.MaxThreadBlocks = 1
		if mut != nil {
			mut(cfg)
		}
	})
	h.fault[0x10000] = vm.FaultMigrate // block 0's first load faults
	return h
}

// driveToFault runs until the sink holds a pending fault.
func driveToFault(t *testing.T, h *harness) {
	t.Helper()
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
		if h.q.Now() > 100000 {
			t.Fatal("fault never raised")
		}
	}
}

func TestSwitchRequiresScheduler(t *testing.T) {
	h := switchHarness(t, 2, func(cfg *config.Config) { cfg.Scheduler.Enabled = false })
	driveToFault(t, h)
	h.sink.resolveAll(20000)
	h.run(500000)
	if out := h.sm.Stats().SwitchesOut; out != 0 {
		t.Errorf("switches with scheduler disabled = %d", out)
	}
}

func TestSwitchThresholdGates(t *testing.T) {
	// The fake sink returns increasing positions (1, 2, ...); a
	// threshold above any returned position suppresses switching.
	h := switchHarness(t, 2, func(cfg *config.Config) { cfg.Scheduler.SwitchThreshold = 100 })
	driveToFault(t, h)
	h.sink.resolveAll(20000)
	h.run(500000)
	if out := h.sm.Stats().SwitchesOut; out != 0 {
		t.Errorf("switches above threshold = %d, want 0", out)
	}
}

func TestNoSwitchWithoutPendingWork(t *testing.T) {
	// Single block in the grid: nothing to switch in, so the block
	// stays resident even though it faulted.
	h := switchHarness(t, 1, nil)
	driveToFault(t, h)
	h.sink.resolveAll(20000)
	h.run(500000)
	if out := h.sm.Stats().SwitchesOut; out != 0 {
		t.Errorf("switched out with no replacement work: %d", out)
	}
	if h.src.done != 1 {
		t.Errorf("blocks done = %d", h.src.done)
	}
}

func TestExtraBlockBudgetBoundsAssignment(t *testing.T) {
	// Many pending blocks, all fault: the SM may hold at most
	// occupancy + MaxExtraBlocks assigned blocks at once.
	var traces []*emu.BlockTrace
	var launch *kernel.Launch
	const blocks = 12
	for i := 0; i < blocks; i++ {
		// Every block faults on its own page.
		bt, l, _ := figure3TraceAt(uint64(0x300000+i*0x1000), uint64(0x400000+i*0x1000))
		bt.BlockID = i
		launch = l
		traces = append(traces, bt)
	}
	launch.Grid = kernel.Dim3{X: blocks}
	h := newHarnessCfg(t, config.ReplayQueue, traces, launch, func(cfg *config.Config) {
		cfg.Scheduler = config.SchedulerConfig{Enabled: true, MaxExtraBlocks: 2, SwitchThreshold: 0}
		cfg.SM.MaxThreadBlocks = 1
	})
	for i := 0; i < blocks; i++ {
		h.fault[uint64(0x300000+i*0x1000)] = vm.FaultMigrate
	}

	maxAssigned := 0
	for i := 0; i < 2_000_000; i++ {
		if h.sm.Done() {
			break
		}
		if h.sm.assigned > maxAssigned {
			maxAssigned = h.sm.assigned
		}
		if len(h.sink.pending) > 0 && h.sm.Idle() {
			h.sink.resolveAll(1000)
		}
		if !h.sm.Idle() {
			h.sm.Tick()
			h.q.Step()
		} else {
			next, ok := h.q.NextEvent()
			if !ok {
				t.Fatal("deadlock")
			}
			h.q.SkipTo(next)
		}
	}
	if !h.sm.Done() {
		t.Fatal("never finished")
	}
	// occupancy 1 + 2 extra = 3.
	if maxAssigned > 3 {
		t.Errorf("max assigned blocks = %d, want <= 3 (occupancy 1 + 2 extra)", maxAssigned)
	}
	if h.src.done != blocks {
		t.Errorf("blocks done = %d, want %d", h.src.done, blocks)
	}
	if h.sm.Stats().SwitchesOut == 0 {
		t.Error("no switching happened in an all-faulting grid")
	}
}

func TestIdealContextSwitchCheaper(t *testing.T) {
	run := func(ideal bool) int64 {
		h := switchHarness(t, 4, func(cfg *config.Config) {
			cfg.Scheduler.IdealContextSwitch = ideal
		})
		driveToFault(t, h)
		h.sink.resolveAll(30000)
		h.run(1_000_000)
		return h.q.Now()
	}
	normal := run(false)
	ideal := run(true)
	if ideal > normal {
		t.Errorf("ideal switching (%d cycles) slower than normal (%d)", ideal, normal)
	}
}

func TestContextSizeIncludesReplayAndLog(t *testing.T) {
	bt, launch, _ := figure3Trace()
	h := newHarnessCfg(t, config.OperandLog, []*emu.BlockTrace{bt}, launch, nil)
	b := h.sm.slots[0]
	base := h.sm.contextSize(b)
	if base != h.sm.blockBytes {
		t.Fatalf("empty context = %d, want %d", base, h.sm.blockBytes)
	}
	// Pending replay entries and live log entries enlarge the context.
	b.warps[0].replay = append(b.warps[0].replay, emu.Pos{}, emu.Pos{Idx: 2})
	b.logUsed = 3
	grown := h.sm.contextSize(b)
	want := base + 2*8 + 3*h.cfg.SM.OperandLog.EntryBytes
	if grown != want {
		t.Errorf("context with state = %d, want %d", grown, want)
	}
}

func TestSwitchedBlockRestoresAndFinishes(t *testing.T) {
	h := switchHarness(t, 3, nil)
	driveToFault(t, h)
	h.sink.resolveAll(50000)
	h.run(1_000_000)
	st := h.sm.Stats()
	if st.SwitchesOut == 0 || st.SwitchesIn == 0 {
		t.Fatalf("switches out/in = %d/%d", st.SwitchesOut, st.SwitchesIn)
	}
	if h.src.done != 3 {
		t.Errorf("blocks done = %d, want 3", h.src.done)
	}
	if len(h.sm.offchip) != 0 {
		t.Errorf("%d blocks stranded off-chip", len(h.sm.offchip))
	}
	if err := h.sm.scoreboardsClean(); err != nil {
		t.Error(err)
	}
}
