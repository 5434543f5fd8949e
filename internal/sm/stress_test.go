package sm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/isa"
	"gpues/internal/kernel"
	"gpues/internal/obs"
	"gpues/internal/vm"
)

// Randomized pipeline stress: generate random warp traces (ALU and
// global memory instructions with random register dependencies), inject
// faults on random pages, and check the pipeline's accounting
// invariants — every instruction commits exactly once, every squash is
// replayed, and the scoreboards are clean at the end.

// randTrace appends a random trace of n instructions to warp w of bt,
// plus its backing static code, and returns its length. Page addresses
// come from the given pool. When barEvery is positive, a bar.sync
// follows every barEvery-th instruction.
func randTrace(rng *rand.Rand, bt *emu.BlockTrace, w, n, barEvery int, pages []uint64, code *[]isa.Instruction) int {
	full := ^uint32(0)
	bars := 0
	for i := 0; i < n; i++ {
		if barEvery > 0 && i > 0 && i%barEvery == 0 {
			*code = append(*code, isa.NewInstruction(isa.OpBar))
			bt.Append(w, int32(len(*code)-1), full)
			bars++
		}
		var in isa.Instruction
		switch rng.Intn(5) {
		case 0, 1: // ALU with random deps
			in = isa.NewInstruction(isa.OpIAdd)
			in.Dst = isa.Reg(rng.Intn(24))
			in.SrcA = isa.Reg(rng.Intn(24))
			in.SrcB = isa.Reg(rng.Intn(24))
		case 2: // load
			in = isa.NewInstruction(isa.OpLdGlobal)
			in.Dst = isa.Reg(rng.Intn(24))
			in.SrcA = isa.Reg(rng.Intn(24))
			in.Size = 8
		case 3: // store
			in = isa.NewInstruction(isa.OpStGlobal)
			in.SrcA = isa.Reg(rng.Intn(24))
			in.SrcB = isa.Reg(rng.Intn(24))
			in.Size = 8
		case 4: // FMA chain
			in = isa.NewInstruction(isa.OpFFma)
			in.Dst = isa.Reg(rng.Intn(24))
			in.SrcA = isa.Reg(rng.Intn(24))
			in.SrcB = isa.Reg(rng.Intn(24))
			in.SrcC = isa.Reg(rng.Intn(24))
		}
		*code = append(*code, in)
		var lines []uint64
		if in.IsGlobalMem() {
			nl := 1 + rng.Intn(3)
			for j := 0; j < nl; j++ {
				page := pages[rng.Intn(len(pages))]
				lines = append(lines, page+uint64(rng.Intn(32))*128)
			}
		}
		bt.Append(w, int32(len(*code)-1), full, lines...)
	}
	*code = append(*code, isa.NewInstruction(isa.OpExit))
	bt.Append(w, int32(len(*code)-1), full)
	return n + bars + 1
}

// stressOpts selects what a stress run exercises beyond random ALU and
// global memory traffic.
type stressOpts struct {
	// inject makes random pages fault until resolved; lazy raises half
	// of them as lazy-allocation faults.
	inject, lazy bool
	// barriers puts a bar.sync after every 8th instruction of each warp.
	barriers bool
	// switching turns on block switching with two extra blocks (the
	// scheme must be preemptible) and grows the grid to five blocks.
	switching bool
}

// stressOnce runs one random grid under scheme, sweeping the SM's
// invariants every step, and returns the SM's counters.
func stressOnce(t *testing.T, seed int64, scheme config.Scheme, opt stressOpts) Stats {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pages := make([]uint64, 8)
	for i := range pages {
		pages[i] = uint64(0x100000 + i*0x1000)
	}

	var code []isa.Instruction

	const warps = 4
	blocks, barEvery := 3, 0
	if opt.switching {
		blocks = 5
	}
	if opt.barriers {
		barEvery = 8
	}
	var traces []*emu.BlockTrace
	total := 0
	for b := 0; b < blocks; b++ {
		bt := &emu.BlockTrace{BlockID: b}
		for w := 0; w < warps; w++ {
			total += randTrace(rng, bt, w, 20+rng.Intn(40), barEvery, pages, &code)
		}
		traces = append(traces, bt)
	}

	k := &kernel.Kernel{Name: "stress", Code: code, RegsPerThread: 48}
	launch := &kernel.Launch{Kernel: k, Grid: kernel.Dim3{X: blocks}, Block: kernel.Dim3{X: warps * 32}}
	h := newHarnessCfg(t, scheme, traces, launch, func(cfg *config.Config) {
		cfg.SM.MaxThreadBlocks = 2 // force pending blocks
		if opt.switching {
			cfg.Scheduler = config.SchedulerConfig{Enabled: true, MaxExtraBlocks: 2}
		}
	})

	// Stock the flight table with more flights than the run ever holds
	// at once, so it builds none of its own: the end state then shows
	// whether every flight, squashed ones included, was freed.
	const stock = 256
	stocked := make([]*flight, stock)
	for i := range stocked {
		stocked[i] = h.sm.newFlight(nil, &h.sm.decode[0], emu.Pos{}, false)
	}
	for _, f := range stocked {
		h.sm.flights.Free(f.slot, f)
	}

	if opt.inject {
		// Random pages fault until resolved.
		for _, p := range pages {
			if rng.Intn(2) == 0 {
				h.fault[p] = vm.FaultMigrate
				if opt.lazy && rng.Intn(2) == 0 {
					h.fault[p] = vm.FaultAllocOnly
				}
			}
		}
	}

	// Drive with periodic fault resolution, sweeping the structural
	// invariants every step: a missed unblock site leaves a stale bit in
	// the issue stage's blocked set, which the sweep reports.
	for i := 0; i < 1_000_000; i++ {
		if v := h.sm.CheckInvariants(h.q.Now(), 0); len(v) > 0 {
			t.Fatalf("seed %d: cycle %d: %v", seed, h.q.Now(), v)
		}
		if h.sm.Done() {
			break
		}
		if len(h.sink.pending) > 0 && rng.Intn(50) == 0 {
			h.sink.resolveAll(int64(10 + rng.Intn(5000)))
		}
		if !h.sm.Idle() {
			h.sm.Tick()
			h.q.Step()
		} else {
			next, ok := h.q.NextEvent()
			if !ok {
				if len(h.sink.pending) > 0 {
					h.sink.resolveAll(100)
					continue
				}
				t.Fatalf("seed %d: deadlock at cycle %d with no pending faults", seed, h.q.Now())
			}
			h.q.SkipTo(next)
		}
	}
	if !h.sm.Done() {
		t.Fatalf("seed %d: SM never finished", seed)
	}
	// Let every stale callback of a squashed flight fire. The sweep
	// above saw each pooled flight with none outstanding, so a squashed
	// flight was reused only after its last callback.
	for {
		next, ok := h.q.NextEvent()
		if !ok {
			break
		}
		h.q.SkipTo(next)
	}
	pooled := 0
	h.sm.flights.EachFree(func(*flight) { pooled++ })
	if pooled != stock {
		t.Errorf("seed %d: %d flights pooled after the run, want the %d stocked", seed, pooled, stock)
	}
	if v := h.sm.CheckInvariants(h.q.Now(), 0); len(v) > 0 {
		t.Errorf("seed %d: after the run: %v", seed, v)
	}

	st := h.sm.Stats()
	// Every dynamic instruction commits exactly once; replays re-commit
	// squashed ones, which the counter does not double-count.
	if st.Committed != int64(total) {
		t.Errorf("seed %d: committed %d of %d instructions", seed, st.Committed, total)
	}
	if st.Replays != st.Squashed {
		t.Errorf("seed %d: %d squashes but %d replays", seed, st.Squashed, st.Replays)
	}
	if opt.inject && scheme.Preemptible() && st.Faults > 0 && st.Squashed == 0 {
		t.Errorf("seed %d: faults without squashes under %v", seed, scheme)
	}
	if h.src.done != blocks {
		t.Errorf("seed %d: %d blocks completed, want %d", seed, h.src.done, blocks)
	}
	return st
}

func TestStressFaultFree(t *testing.T) {
	for _, scheme := range []config.Scheme{
		config.Baseline, config.WarpDisableCommit, config.WarpDisableLastCheck,
		config.ReplayQueue, config.OperandLog,
	} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				stressOnce(t, seed, scheme, stressOpts{})
			}
		})
	}
}

func TestStressWithFaults(t *testing.T) {
	for _, scheme := range []config.Scheme{
		config.Baseline, config.WarpDisableCommit, config.WarpDisableLastCheck,
		config.ReplayQueue, config.OperandLog,
	} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			for seed := int64(100); seed < 115; seed++ {
				stressOnce(t, seed, scheme, stressOpts{inject: true})
			}
		})
	}
}

// TestStressFetchMask sweeps the invariants, the fetch mask's among
// them, every cycle of random runs with barriers and migration and
// lazy-allocation faults under all five schemes, with block switching
// under the four preemptible ones: every transition that lets a warp
// fetch again (activation, restore, barrier release, fetch re-enabled,
// last fault resolved, replay queued) must set its fetchable bit.
func TestStressFetchMask(t *testing.T) {
	for _, scheme := range []config.Scheme{
		config.Baseline, config.WarpDisableCommit, config.WarpDisableLastCheck,
		config.ReplayQueue, config.OperandLog,
	} {
		t.Run(scheme.String(), func(t *testing.T) {
			var sum Stats
			for seed := int64(200); seed < 212; seed++ {
				st := stressOnce(t, seed, scheme, stressOpts{
					inject: true, lazy: true, barriers: true, switching: scheme.Preemptible(),
				})
				sum.Faults += st.Faults
				sum.Replays += st.Replays
				sum.SwitchesIn += st.SwitchesIn
				sum.Stalls[obs.StallBarrier] += st.Stalls[obs.StallBarrier]
			}
			// The runs must reach what they claim to exercise.
			if sum.Faults == 0 || sum.Stalls[obs.StallBarrier] == 0 {
				t.Errorf("%d faults, %d barrier stall cycles", sum.Faults, sum.Stalls[obs.StallBarrier])
			}
			if scheme.Preemptible() && (sum.Replays == 0 || sum.SwitchesIn == 0) {
				t.Errorf("%d replays, %d switches in", sum.Replays, sum.SwitchesIn)
			}
		})
	}
}

// TestCheckInvariantsFlightCounts: the sweep reports a pooled flight
// with callbacks still outstanding, and a negative outstanding count.
func TestCheckInvariantsFlightCounts(t *testing.T) {
	bt, launch, _ := figure3Trace()
	h := newHarness(t, config.ReplayQueue, []*emu.BlockTrace{bt}, launch)
	for _, tc := range []struct {
		pending int
		want    string
	}{
		{2, "pooled flight has 2 callbacks outstanding"},
		{-1, "pooled flight has negative outstanding count -1"},
	} {
		f := h.sm.newFlight(nil, &h.sm.decode[0], emu.Pos{}, false)
		f.pending = tc.pending
		h.sm.flights.Free(f.slot, f)
		v := h.sm.CheckInvariants(h.q.Now(), 0)
		if len(v) != 1 || !strings.HasSuffix(v[0], tc.want) {
			t.Errorf("pending %d: violations %q, want one ending %q", tc.pending, v, tc.want)
		}
		f = h.sm.newFlight(nil, &h.sm.decode[0], emu.Pos{}, false)
		f.pending = 0
	}
}

// TestStressSchemesAgreeOnWork: all schemes retire the same instruction
// count for the same trace (they differ only in timing).
func TestStressSchemesAgreeOnWork(t *testing.T) {
	counts := map[config.Scheme]int64{}
	for _, scheme := range []config.Scheme{
		config.Baseline, config.WarpDisableCommit, config.ReplayQueue, config.OperandLog,
	} {
		rng := rand.New(rand.NewSource(7))
		pages := []uint64{0x100000, 0x101000}
		var code []isa.Instruction
		bt := &emu.BlockTrace{BlockID: 0}
		for w := 0; w < 2; w++ {
			randTrace(rng, bt, w, 30, 0, pages, &code)
		}
		k := &kernel.Kernel{Name: "agree", Code: code, RegsPerThread: 48}
		launch := &kernel.Launch{Kernel: k, Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 64}}
		h := newHarness(t, scheme, []*emu.BlockTrace{bt}, launch)
		h.run(1_000_000)
		counts[scheme] = h.sm.Stats().Committed
	}
	want := counts[config.Baseline]
	for s, c := range counts {
		if c != want {
			t.Errorf("%v committed %d, baseline %d", s, c, want)
		}
	}
}

// invariantCheck exposes scoreboard state for the stress tests.
func (s *SM) scoreboardsClean() error {
	for _, w := range s.warps {
		if w == nil {
			continue
		}
		for i, c := range w.pendRead {
			if c != 0 {
				return fmt.Errorf("warp %d: pendRead[r%d] = %d", w.idx, i, c)
			}
		}
		for i, bits := range w.pendWrite {
			if bits != 0 {
				return fmt.Errorf("warp %d: pendWrite[%d] = %#x", w.idx, i, bits)
			}
		}
	}
	return nil
}

func TestScoreboardsCleanAfterRun(t *testing.T) {
	for _, scheme := range []config.Scheme{config.Baseline, config.ReplayQueue, config.OperandLog} {
		// Each run hands its trace back, poisoned, so each builds one.
		bt, launch, _ := figure3Trace()
		h := newHarness(t, scheme, []*emu.BlockTrace{bt}, launch)
		h.run(100000)
		if err := h.sm.scoreboardsClean(); err != nil {
			t.Errorf("%v: %v", scheme, err)
		}
	}
}

// TestGreedyIssuePolicy: the greedy-then-oldest scheduler is a valid
// alternative policy — same committed work, different issue interleaving.
func TestGreedyIssuePolicy(t *testing.T) {
	for _, greedy := range []bool{false, true} {
		bt, launch, _ := figure3Trace()
		h := newHarnessCfg(t, config.Baseline, []*emu.BlockTrace{bt}, launch,
			func(cfg *config.Config) { cfg.SM.GreedyIssue = greedy })
		h.run(100000)
		if got := h.sm.Stats().Committed; got != 5 {
			t.Errorf("greedy=%v: committed %d, want 5", greedy, got)
		}
	}
}
