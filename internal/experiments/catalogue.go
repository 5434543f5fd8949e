package experiments

import (
	"fmt"
	"slices"
	"strings"

	"gpues/internal/cacti"
	"gpues/internal/config"
	"gpues/internal/workloads"
)

// experiment is one entry of the catalogue: a paper artifact or sweep
// that Run can select by name.
type experiment struct {
	name string
	// scale is the dataset scale used when Options.Scale is 0: the
	// pipeline studies converge at scale 1; the use cases need larger
	// datasets for sustained fault streams.
	scale int
	// inAll makes "all" select the entry.
	inAll bool
	run   func(Options) (Section, error)
}

// catalogue lists every experiment in the order Run runs and renders
// them, which is the order of the paper's evaluation section.
var catalogue = []experiment{
	{"table1", 0, true, func(Options) (Section, error) {
		c := config.Default()
		return Section{Table1: &c}, nil
	}},
	{"fig10", 1, true, one(fig10)},
	{"fig11", 1, true, one(fig11)},
	{"table2", 0, true, func(Options) (Section, error) {
		rows, err := cacti.Table2()
		return Section{Table2: rows}, err
	}},
	{"fig12", 2, true, one(fig12)},
	{"fig13", 2, true, one(fig13)},
	{"fig14", 1, true, one(fig14)},
	{"scalability", 1, true, scalability},
	{"ablations", 1, true, ablations},
	// Not part of "all": a robustness sweep and the bit-flip campaign,
	// not paper figures.
	{"chaos", 1, false, one(chaosSweep)},
	{"resilience", 1, false, one(resilience)},
}

// one adapts a single-figure experiment to a catalogue entry.
func one(f func(Options) (*Result, error)) func(Options) (Section, error) {
	return func(o Options) (Section, error) {
		r, err := f(o)
		return Section{Results: []*Result{r}}, err
	}
}

// Usage lists the names Run accepts, for a command's help text.
func Usage() string {
	var names, extra []string
	for _, e := range catalogue {
		names = append(names, e.name)
		if !e.inAll {
			extra = append(extra, e.name)
		}
	}
	return strings.Join(names, ", ") + "; all runs every one but " + strings.Join(extra, " and ")
}

// Document is what one Run produced: one Section per experiment that
// finished, in run order. String renders it as text tables; it
// marshals to JSON and decodes back to a Document that renders the
// same text.
type Document struct {
	Sections []Section
}

// Section is one experiment's output. Table1 holds Table 1's
// parameters, Table2 its rows, and Results every figure, sweep or
// ablation; an experiment sets one of them.
type Section struct {
	Name    string
	Table1  *config.Config    `json:",omitempty"`
	Table2  []cacti.Overheads `json:",omitempty"`
	Results []*Result         `json:",omitempty"`
}

// Check returns an error naming the first of names that is neither a
// catalogue entry nor "all" (spaces around a name are ignored), or else
// the first of benchmarks that is not a registered workload.
func Check(names, benchmarks []string) error {
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n != "all" && !slices.ContainsFunc(catalogue, func(e experiment) bool { return e.name == n }) {
			return fmt.Errorf("unknown experiment %q; valid: %s", n, Usage())
		}
	}
	valid := workloads.Names("")
	for _, b := range benchmarks {
		if !slices.Contains(valid, b) {
			return fmt.Errorf("unknown benchmark %q; valid: %s", b, strings.Join(valid, ", "))
		}
	}
	return nil
}

// Run runs the named experiments in catalogue order; "all" names every
// entry marked for it. It checks every name and Options.Benchmarks
// entry before it simulates anything. On a failure it returns the
// sections that finished with the error.
func Run(names []string, opt Options) (*Document, error) {
	if err := Check(names, opt.Benchmarks); err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, n := range names {
		want[strings.TrimSpace(n)] = true
	}
	// Non-nil, so even a campaign that fails first marshals "Sections": [].
	doc := &Document{Sections: []Section{}}
	for _, e := range catalogue {
		if !want[e.name] && !(want["all"] && e.inAll) {
			continue
		}
		o := opt
		if o.Scale == 0 {
			o.Scale = e.scale
		}
		sec, err := e.run(o)
		if err != nil {
			return doc, fmt.Errorf("%s: %w", e.name, err)
		}
		sec.Name = e.name
		doc.Sections = append(doc.Sections, sec)
	}
	return doc, nil
}

// String renders every section as the aligned text tables of the
// paper's evaluation, each followed by a blank line.
func (d *Document) String() string {
	var sb strings.Builder
	for _, s := range d.Sections {
		if s.Table1 != nil {
			sb.WriteString(table1(*s.Table1))
			sb.WriteByte('\n')
		}
		if s.Table2 != nil {
			sb.WriteString("table2 — Operand logging overheads\n")
			fmt.Fprintf(&sb, "%-8s %10s %10s %10s %10s\n", "log", "SM area", "GPU area", "SM power", "GPU power")
			for _, r := range s.Table2 {
				fmt.Fprintf(&sb, "%-8s %9.2f%% %9.2f%% %9.2f%% %9.2f%%\n",
					fmt.Sprintf("%d KB", r.LogKB), r.SMAreaPct, r.GPUAreaPct, r.SMPowerPct, r.GPUPowerPct)
			}
			sb.WriteByte('\n')
		}
		for _, r := range s.Results {
			sb.WriteString(r.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// table1 renders the simulation parameters of c (the paper's Table 1).
func table1(c config.Config) string {
	var sb strings.Builder
	sb.WriteString("Table 1 — Simulation parameters\n")
	fmt.Fprintf(&sb, "SM:      %.0f GHz, %d max TBs, %d max warps, %d KB RF, %d KB shared\n",
		c.System.FrequencyGHz, c.SM.MaxThreadBlocks, c.SM.MaxWarps, c.SM.RegisterFileKB, c.SM.SharedMemoryKB)
	fmt.Fprintf(&sb, "Issue:   %d instructions from up to %d warps; %d math, %d SFU, %d ld/st, %d branch units\n",
		c.SM.IssueWidth, c.SM.IssueWarps, c.SM.MathUnits, c.SM.SpecialUnits, c.SM.LoadStore, c.SM.BranchUnits)
	fmt.Fprintf(&sb, "L1:      %d KB / %d-way / %d B lines, %d MSHRs, %d clk; L1 TLB %d entries / %d-way\n",
		c.SM.L1SizeKB, c.SM.L1Ways, c.SM.L1LineB, c.SM.L1MSHRs, c.SM.L1Latency, c.SM.L1TLBSize, c.SM.L1TLBWays)
	fmt.Fprintf(&sb, "System:  %d SMs; L2 %d KB / %d-way, %d clk, %d MSHRs; L2 TLB %d entries, %d MSHRs, %d clk\n",
		c.System.NumSMs, c.System.L2SizeKB, c.System.L2Ways, c.System.L2Latency, c.System.L2MSHRs,
		c.System.L2TLBEntries, c.System.L2TLBMSHRs, c.System.L2TLBLatency)
	fmt.Fprintf(&sb, "Walkers: %d page table walkers, %d clk walks\n", c.System.PTWalkers, c.System.WalkLatency)
	fmt.Fprintf(&sb, "DRAM:    %.0f GB/s, %d clk; pages %d B, fault handling granularity %d KB\n",
		c.System.DRAMBandwidthGBs, c.System.DRAMLatency, c.System.PageSize, c.System.FaultGranularity/1024)
	return sb.String()
}
