package experiments

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"gpues/internal/config"
	"gpues/internal/excep"
	"gpues/internal/sim"
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

// resilienceSeed derives the stable base seed of one campaign cell.
func resilienceSeed(bench, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(bench))
	h.Write([]byte{0})
	h.Write([]byte(label))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

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

// Resilience runs the bit-flip resilience campaign: every benchmark ×
// protection-level cell runs a fixed count of seeded trials, each
// classified by the exact functional oracle into masked / sdc /
// exception / crash / hang. Rows are bench/pN (N = percent of each
// block's threads shielded from flips; bench/tN for a pinned absolute
// count), columns are outcome classes, values are trial counts —
// deterministic for a given seed ladder, so CI can compare them
// exactly.
func Resilience(opt Options) (*Result, error) {
	opt = opt.normalize()
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

	type cell struct {
		row    string
		counts []float64
		err    error
	}
	sem := make(chan struct{}, opt.Parallelism)
	results := make(chan cell, len(benches)*len(prots))
	var wg sync.WaitGroup
	var doneTrials atomic.Int64
	// Campaign progress counts individual trials.
	totalTrials := len(benches) * len(prots) * trials
	for _, bench := range benches {
		for _, prot := range prots {
			bench, prot := bench, prot
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				row := fmt.Sprintf("%s/%s", bench, prot.label)
				counts := make([]float64, excep.NumOutcomes)
				base := opt.FlipSeed
				if base == 0 {
					base = resilienceSeed(bench, prot.label)
				}
				for trial := 0; trial < trials; trial++ {
					spec, err := workloads.Build(bench,
						workloads.Params{Scale: opt.Scale, Placement: workloads.Resident()})
					if err != nil {
						results <- cell{row, nil, err}
						return
					}
					cfg := config.Default()
					cfg.Excep.Mode = opt.ExcepMode
					if opt.ExcepMode == excep.ModePreemptible {
						cfg.Scheme = config.ReplayQueue
					}
					cfg.Excep.Flip = excep.FlipConfig{
						Seed:           base + int64(trial),
						Rate:           rate,
						ProtectThreads: prot.threads(spec.Launch.ThreadsPerBlock()),
					}
					tr, err := sim.RunResilienceTrial(cfg, spec,
						sim.TrialOptions{MaxWarpInsts: resilienceWarpInsts})
					if err != nil {
						results <- cell{row, nil, fmt.Errorf("%s trial %d: %w", row, trial, err)}
						return
					}
					counts[tr.Outcome]++
					line := fmt.Sprintf("%-20s trial %d: %-9v flips=%d cycles=%d",
						row, trial, tr.Outcome, tr.Flips, tr.Cycles)
					if opt.Progress != nil {
						opt.Progress(line)
					}
					opt.campaignStep(&doneTrials, totalTrials, line)
				}
				results <- cell{row, counts, nil}
			}()
		}
	}
	wg.Wait()
	close(results)

	res := &Result{
		ID:      "resilience",
		Title:   fmt.Sprintf("Bit-flip outcome classification (%d trials/cell, rate %.0e, %v delivery)", trials, rate, opt.ExcepMode),
		Metric:  "trials per outcome class",
		Geomean: map[string]float64{},
	}
	for o := excep.Outcome(0); o < excep.NumOutcomes; o++ {
		res.Columns = append(res.Columns, o.String())
	}
	byRow := map[string][]float64{}
	for c := range results {
		if c.err != nil {
			return nil, c.err
		}
		byRow[c.row] = c.counts
	}
	for _, bench := range benches {
		for _, prot := range prots {
			row := Row{Benchmark: fmt.Sprintf("%s/%s", bench, prot.label), Values: map[string]float64{}}
			counts := byRow[row.Benchmark]
			for o := excep.Outcome(0); o < excep.NumOutcomes; o++ {
				row.Values[o.String()] = counts[o]
			}
			res.Rows = append(res.Rows, row)
		}
	}
	for _, col := range res.Columns {
		res.Geomean[col] = geomean(res.Rows, col)
	}
	return res, nil
}
