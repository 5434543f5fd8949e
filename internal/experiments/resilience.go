package experiments

import (
	"fmt"

	"gpues/internal/config"
	"gpues/internal/excep"
	"gpues/internal/workloads"
)

// resilienceFlipRate is the per-lane-instruction flip probability of
// the campaign: low enough that single-digit flip counts dominate,
// high enough that every cell sees flips at scale 1.
const resilienceFlipRate = 1e-4

// defaultResilienceTrials is the seeded trial count per campaign cell
// when Options.Trials is unset.
const defaultResilienceTrials = 5

// resilienceWarpInsts caps functional emulation per warp during
// trials, so a flipped loop bound classifies as a hang quickly instead
// of burning the emulator's full default budget.
const resilienceWarpInsts = 1 << 18

// resilienceProtections is the swept partial-thread-protection ladder,
// as a percentage of each block's threads.
var resilienceProtections = []int{0, 50, 100}

// protCell is one rung of the protection sweep: a row-label suffix and
// the protected-thread count as a function of the block size.
type protCell struct {
	label   string
	threads func(tpb int) int
}

func (o Options) protCells() []protCell {
	if o.ProtectPin {
		n := o.ProtectThreads
		return []protCell{{fmt.Sprintf("t%d", n), func(int) int { return n }}}
	}
	cells := make([]protCell, 0, len(resilienceProtections))
	for _, pct := range resilienceProtections {
		pct := pct
		cells = append(cells, protCell{fmt.Sprintf("p%d", pct),
			func(tpb int) int { return tpb * pct / 100 }})
	}
	return cells
}

// resilience runs the bit-flip resilience campaign: every benchmark ×
// protection-level cell runs a fixed count of seeded trials, each
// classified by the exact functional oracle into masked / sdc /
// exception / crash / hang. Rows are bench/pN (N = percent of each
// block's threads shielded from flips; bench/tN for a pinned absolute
// count), columns are outcome classes, values are trial counts —
// deterministic for a given seed ladder, so CI can compare them
// exactly.
func resilience(opt Options) (*Result, error) {
	benches := opt.parboil()
	trials := opt.Trials
	if trials <= 0 {
		trials = defaultResilienceTrials
	}
	rate := resilienceFlipRate
	if opt.FlipRate > 0 {
		rate = opt.FlipRate
	}
	prots := opt.protCells()
	var jobs []job
	for _, bench := range benches {
		for _, prot := range prots {
			base := opt.FlipSeed
			if base == 0 {
				base = cellSeed(bench, prot.label)
			}
			for trial := 0; trial < trials; trial++ {
				cfg := config.Default()
				cfg.Excep.Mode = opt.ExcepMode
				if opt.ExcepMode == excep.ModePreemptible {
					cfg.Scheme = config.ReplayQueue
				}
				cfg.Excep.Flip = excep.FlipConfig{Seed: base + int64(trial), Rate: rate}
				jobs = append(jobs, job{row: bench + "/" + prot.label, col: fmt.Sprintf("trial %d", trial),
					bench: bench, cfg: cfg, place: workloads.Resident(), protect: prot.threads})
			}
		}
	}
	outcomes, err := runAll(opt, jobs)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:      "resilience",
		Title:   fmt.Sprintf("Bit-flip outcome classification (%d trials/cell, rate %.0e, %v delivery)", trials, rate, opt.ExcepMode),
		Metric:  "trials per outcome class",
		Geomean: map[string]float64{},
	}
	for o := excep.Outcome(0); o < excep.NumOutcomes; o++ {
		res.Columns = append(res.Columns, o.String())
	}
	for _, bench := range benches {
		for _, prot := range prots {
			row := Row{Benchmark: bench + "/" + prot.label, Values: map[string]float64{}}
			for _, col := range res.Columns {
				row.Values[col] = 0
			}
			for _, o := range outcomes[row.Benchmark] {
				row.Values[excep.Outcome(o).String()]++
			}
			res.Rows = append(res.Rows, row)
		}
	}
	for _, col := range res.Columns {
		res.Geomean[col] = geomean(res.Rows, col)
	}
	return res, nil
}
