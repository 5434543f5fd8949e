// Package runspec is the one place a simulation run's model axes are
// spelled. A JobSpec is the payload of a simserv job and the target of
// the flag binder that gpusim and simbisect parse into; Build turns it
// into a validated configuration and launch, so every front end accepts
// and rejects exactly the same runs.
package runspec

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"gpues/internal/chaos"
	"gpues/internal/config"
	"gpues/internal/excep"
	"gpues/internal/sim"
	"gpues/internal/workloads"
)

// JobSpec names one simulation: a benchmark plus the model axes of the
// gpusim command line. It is the job API's submit payload and the unit
// the result cache is keyed on (via the simulator's config/spec
// fingerprints, not this struct's encoding — two spellings of the same
// simulation share a cache entry).
type JobSpec struct {
	Benchmark string `json:"benchmark"`
	Scale     int    `json:"scale,omitempty"` // default 1
	// Scheme is the pipeline scheme: baseline, wd-commit,
	// wd-lastcheck, replay-queue or operand-log (default baseline).
	Scheme string `json:"scheme,omitempty"`
	// Link is the CPU-GPU interconnect: nvlink or pcie (default nvlink).
	Link string `json:"link,omitempty"`
	// Placement is the initial data placement: resident, paging or
	// lazy (default resident).
	Placement string `json:"placement,omitempty"`
	// Switching enables thread block switching on fault (use case 1);
	// it needs a preemptible scheme.
	Switching bool `json:"switching,omitempty"`
	// Local handles allocation-only faults on the GPU (use case 2).
	Local bool `json:"local,omitempty"`
	// MaxCycles aborts the run with a stall report past this cycle
	// (0 = simulator default).
	MaxCycles int64 `json:"max_cycles,omitempty"`

	// The axes below are set only by the command-line tools: the job
	// API does not carry them, so a decoded job has their defaults.

	// LogKB is the operand log size in KB; nil keeps the default.
	LogKB *int `json:"-"`
	// ExcepMode is the device exception delivery: precise or
	// preemptible (default precise).
	ExcepMode string `json:"-"`
	// Flip is the bit-flip injection campaign (zero Rate = off).
	Flip excep.FlipConfig `json:"-"`
	// SampleEvery samples the telemetry series every N cycles (0 = off).
	SampleEvery int64 `json:"-"`
	// ChaosLevel (0-3) and ChaosSeed select a fault-injection plan.
	ChaosLevel int   `json:"-"`
	ChaosSeed  int64 `json:"-"`
	// Perturb is a comma-separated cycle:component list of artificial
	// state divergences (for exercising simbisect).
	Perturb string `json:"-"`
}

// Bind registers every model axis on fs under its gpusim flag name and
// returns the spec that parsing fs fills in, starting from the flags'
// defaults.
func Bind(fs *flag.FlagSet) *JobSpec {
	js := &JobSpec{}
	fs.StringVar(&js.Benchmark, "workload", "sgemm", "workload to run (see -list)")
	fs.IntVar(&js.Scale, "scale", 1, "dataset scale factor")
	fs.StringVar(&js.Scheme, "scheme", "baseline", "pipeline scheme: baseline, wd-commit, wd-lastcheck, replay-queue, operand-log")
	fs.StringVar(&js.Link, "link", "nvlink", "CPU-GPU interconnect: nvlink or pcie")
	fs.Var(placeFlag{js, "paging"}, "paging", "start data in CPU memory (on-demand paging)")
	fs.Var(placeFlag{js, "lazy"}, "lazy", "leave output/heap pages unallocated (lazy allocation)")
	fs.BoolVar(&js.Switching, "switching", false, "enable thread block switching on fault (use case 1; needs a preemptible -scheme)")
	fs.BoolVar(&js.Local, "local", false, "handle allocation-only faults on the GPU (use case 2)")
	fs.Func("log-kb", fmt.Sprintf("operand log size in KB (operand-log scheme; default %d)",
		config.Default().SM.OperandLog.SizeKB), func(s string) error {
		n, err := strconv.Atoi(s)
		js.LogKB = &n
		return err
	})
	fs.Int64Var(&js.MaxCycles, "max-cycles", 0, "abort with a stall report after this many cycles (0 = default)")
	fs.StringVar(&js.ExcepMode, "exception-mode", "precise", "device exception delivery: precise (drain and kill the faulting warp) or preemptible (squash the block via context save)")
	fs.Int64Var(&js.Flip.Seed, "flip-seed", 0, "bit-flip injection seed (with -flip-rate)")
	fs.Float64Var(&js.Flip.Rate, "flip-rate", 0, "per-lane-instruction bit-flip probability in [0,1] (0 = off)")
	fs.IntVar(&js.Flip.ProtectThreads, "protect-threads", 0, "shield the first N threads of every block from bit flips")
	fs.Int64Var(&js.SampleEvery, "sample-every", 0, "sample every registered metric into the telemetry series every N cycles (0 = off)")
	fs.IntVar(&js.ChaosLevel, "chaos-level", 0, "fault-injection level: 0 none, 1 timing noise, 2 transient faults, 3 fault storm")
	fs.Int64Var(&js.ChaosSeed, "chaos-seed", 1, "fault-injection RNG seed (with -chaos-level)")
	fs.Func("perturb", "comma-separated cycle:component artificial state divergences (for exercising simbisect; see docs/checkpointing.md)", func(s string) error {
		if js.Perturb != "" {
			s = js.Perturb + "," + s
		}
		js.Perturb = s
		return nil
	})
	return js
}

// placeFlag is one of the -paging/-lazy pair: boolean flags over the
// single Placement axis, so asking for both is an error.
type placeFlag struct {
	js   *JobSpec
	name string
}

func (p placeFlag) IsBoolFlag() bool { return true }

func (p placeFlag) String() string {
	return strconv.FormatBool(p.js != nil && p.js.Placement == p.name)
}

func (p placeFlag) Set(s string) error {
	on, err := strconv.ParseBool(s)
	switch {
	case err != nil:
		return err
	case !on:
		if p.js.Placement == p.name {
			p.js.Placement = ""
		}
	case p.js.Placement == "" || p.js.Placement == "resident" || p.js.Placement == p.name:
		p.js.Placement = p.name
	default:
		return errors.New("-paging and -lazy are mutually exclusive")
	}
	return nil
}

// SetItems applies a comma-separated key=value list to fs, each key a
// flag name that Bind registered: simbisect's -a/-b override syntax.
func SetItems(fs *flag.FlagSet, items string) error {
	if items == "" {
		return nil
	}
	for _, item := range strings.Split(items, ",") {
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return fmt.Errorf("override %q is not key=value", item)
		}
		if err := fs.Set(key, val); err != nil {
			return fmt.Errorf("override %s: %w", key, err)
		}
	}
	return nil
}

// Build materializes the simulator inputs. It validates every axis on
// the way and ends in Config.Validate: an unknown benchmark, scheme,
// link or placement, a malformed chaos level or perturbation, or an
// inconsistent configuration fails here, at admission, not on a
// worker or mid-run.
func (js JobSpec) Build() (config.Config, sim.LaunchSpec, error) {
	cfg := config.Default()
	fail := func(err error) (config.Config, sim.LaunchSpec, error) {
		return cfg, sim.LaunchSpec{}, err
	}
	switch js.Scheme {
	case "", "baseline":
		cfg.Scheme = config.Baseline
	case "wd-commit":
		cfg.Scheme = config.WarpDisableCommit
	case "wd-lastcheck":
		cfg.Scheme = config.WarpDisableLastCheck
	case "replay-queue":
		cfg.Scheme = config.ReplayQueue
	case "operand-log":
		cfg.Scheme = config.OperandLog
	default:
		return fail(fmt.Errorf("runspec: unknown scheme %q", js.Scheme))
	}
	switch js.Link {
	case "", "nvlink":
		cfg.Link = config.NVLinkConfig()
	case "pcie":
		cfg.Link = config.PCIeConfig()
	default:
		return fail(fmt.Errorf("runspec: unknown link %q", js.Link))
	}
	place := workloads.Resident()
	switch js.Placement {
	case "", "resident":
	case "paging":
		place = workloads.DemandPaging()
		cfg.DemandPaging = true
	case "lazy":
		place = workloads.LazyOutput()
	default:
		return fail(fmt.Errorf("runspec: unknown placement %q", js.Placement))
	}
	if js.ExcepMode != "" {
		mode, err := excep.ParseMode(js.ExcepMode)
		if err != nil {
			return fail(err)
		}
		cfg.Excep.Mode = mode
	}
	if js.LogKB != nil {
		cfg.SM.OperandLog.SizeKB = *js.LogKB
	}
	cfg.Scheduler.Enabled = js.Switching
	cfg.Local.Enabled = js.Local
	cfg.MaxCycles = js.MaxCycles
	cfg.Excep.Flip = js.Flip
	cfg.SampleEvery = js.SampleEvery
	if js.Scale < 0 {
		return fail(fmt.Errorf("runspec: scale %d must be >= 1", js.Scale))
	}
	if _, err := js.ChaosPlan(); err != nil {
		return fail(err)
	}
	if _, err := js.perturbs(); err != nil {
		return fail(err)
	}
	spec, err := workloads.Build(js.Benchmark, workloads.Params{Scale: js.Scale, Placement: place})
	if err != nil {
		return fail(err)
	}
	if err := cfg.Validate(); err != nil {
		return fail(err)
	}
	return cfg, spec, nil
}

// Key returns the result-cache / singleflight key: the simulator's
// config and launch-spec fingerprints, the same pair a checkpoint is
// stamped with. Building the workload image is cheap next to
// simulating it; identical simulations always collide here even when
// their JobSpecs differ in spelling (e.g. "" vs "baseline").
func (js JobSpec) Key() (string, error) {
	cfg, spec, err := js.Build()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("cfg%016x-spec%016x", sim.FingerprintConfig(cfg), sim.FingerprintSpec(spec)), nil
}

// ChaosPlan returns the fault-injection plan for ChaosLevel and
// ChaosSeed, or nil at level 0.
func (js JobSpec) ChaosPlan() (*chaos.Plan, error) {
	if js.ChaosLevel == 0 {
		return nil, nil
	}
	return chaos.ForLevel(js.ChaosLevel, js.ChaosSeed)
}

type perturb struct {
	cycle     int64
	component string
}

func (js JobSpec) perturbs() ([]perturb, error) {
	if js.Perturb == "" {
		return nil, nil
	}
	var ps []perturb
	for _, item := range strings.Split(js.Perturb, ",") {
		cycleStr, comp, ok := strings.Cut(item, ":")
		if !ok {
			return nil, fmt.Errorf("runspec: perturb %q is not cycle:component", item)
		}
		cycle, err := strconv.ParseInt(cycleStr, 10, 64)
		if err != nil || cycle < 0 {
			return nil, fmt.Errorf("runspec: perturb cycle %q must be a non-negative integer", cycleStr)
		}
		ps = append(ps, perturb{cycle: cycle, component: comp})
	}
	return ps, nil
}

// Attach arms a simulator built from this spec with its chaos plan and
// perturbations.
func (js JobSpec) Attach(s *sim.Simulator) error {
	plan, err := js.ChaosPlan()
	if err != nil {
		return err
	}
	s.AttachChaos(plan)
	ps, err := js.perturbs()
	if err != nil {
		return err
	}
	for _, p := range ps {
		if err := s.InjectDivergence(p.cycle, p.component); err != nil {
			return err
		}
	}
	return nil
}

// NewSim builds a fresh, fully armed simulator for the spec.
func (js JobSpec) NewSim() (*sim.Simulator, error) {
	cfg, spec, err := js.Build()
	if err != nil {
		return nil, err
	}
	s, err := sim.New(cfg, spec)
	if err != nil {
		return nil, err
	}
	if err := js.Attach(s); err != nil {
		return nil, err
	}
	return s, nil
}
