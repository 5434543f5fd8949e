// Package gpues is a cycle-level GPU architecture simulator with
// support for preemptible exceptions, reproducing "Efficient Exception
// Handling Support for GPUs" (Tanasic et al., MICRO 2017).
//
// The simulator models a 16-SM Kepler-class GPU (Table 1 of the paper):
// SIMT pipelines with scoreboarding and out-of-order commit, private L1
// caches and TLBs, a shared L2 cache and TLB, page table walkers, DRAM,
// a CPU-GPU interconnect (NVLink or PCIe), and a CPU driver that
// resolves page faults. On top of the baseline stall-on-fault pipeline
// it implements the paper's three preemptible exception schemes — warp
// disable, replay queue, and operand log — plus the two use cases:
// thread block switching on fault and GPU-local fault handling.
//
// Quick start:
//
//	spec, _ := gpues.BuildWorkload("sgemm", gpues.WorkloadParams{Scale: 1})
//	cfg := gpues.DefaultConfig()
//	cfg.Scheme = gpues.ReplayQueue
//	result, _ := gpues.Run(cfg, spec)
//	fmt.Printf("%d cycles, IPC %.2f\n", result.Cycles, result.IPC())
//
// Custom kernels are written against the internal ISA with the exported
// kernel Builder; see examples/customkernel.
package gpues

import (
	"io"

	"gpues/internal/cacti"
	"gpues/internal/chaos"
	"gpues/internal/ckpt"
	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/excep"
	"gpues/internal/experiments"
	"gpues/internal/isa"
	"gpues/internal/kernel"
	"gpues/internal/obs"
	"gpues/internal/sim"
	"gpues/internal/vm"
	"gpues/internal/workloads"
)

// Configuration ---------------------------------------------------------

// Config is the full simulation configuration (Table 1 defaults via
// DefaultConfig).
type Config = config.Config

// Scheme selects the SM pipeline organization.
type Scheme = config.Scheme

// The five pipeline organizations of the paper.
const (
	// Baseline is the stall-on-fault pipeline of current GPUs.
	Baseline = config.Baseline
	// WarpDisableCommit re-enables warp fetch at the memory
	// instruction's commit.
	WarpDisableCommit = config.WarpDisableCommit
	// WarpDisableLastCheck re-enables warp fetch at the last TLB check.
	WarpDisableLastCheck = config.WarpDisableLastCheck
	// ReplayQueue captures in-flight memory instructions for replay.
	ReplayQueue = config.ReplayQueue
	// OperandLog additionally logs source operands.
	OperandLog = config.OperandLog
)

// DefaultConfig returns the paper's Table 1 configuration (16 SMs at
// 1 GHz over NVLink, baseline pipeline).
func DefaultConfig() Config { return config.Default() }

// NVLinkConfig and PCIeConfig return the two interconnect
// configurations evaluated by the paper.
func NVLinkConfig() config.InterconnectConfig { return config.NVLinkConfig() }

// PCIeConfig returns the PCIe 3.0 interconnect configuration.
func PCIeConfig() config.InterconnectConfig { return config.PCIeConfig() }

// Simulation ------------------------------------------------------------

// LaunchSpec is a runnable kernel launch: code, functional memory and
// virtual memory regions.
type LaunchSpec = sim.LaunchSpec

// Result is the outcome of a simulated kernel execution.
type Result = sim.Result

// Simulator is a one-shot full-system simulation.
type Simulator = sim.Simulator

// Run simulates the launch under the configuration.
func Run(cfg Config, spec LaunchSpec) (*Result, error) {
	return sim.RunSpec(cfg, spec)
}

// NewSimulator wires a simulator without running it (for callers that
// want to inspect the address space afterwards).
func NewSimulator(cfg Config, spec LaunchSpec) (*Simulator, error) {
	return sim.New(cfg, spec)
}

// Chaos testing ----------------------------------------------------------

// ChaosConfig parameterizes deterministic fault injection; the zero
// value injects nothing.
type ChaosConfig = chaos.Config

// ChaosPlan is a live, seeded injection plan.
type ChaosPlan = chaos.Plan

// ChaosEvent is one injected perturbation.
type ChaosEvent = chaos.Event

// ChaosResult is a chaos run's outcome: timing result, injected-event
// log, and the restartability-oracle verdict.
type ChaosResult = sim.ChaosResult

// StallReport is the structured diagnostic of a non-completing run.
type StallReport = sim.StallReport

// StallError is the error carrying a StallReport (recover it with
// errors.As).
type StallError = sim.StallError

// NewChaosPlan builds an injection plan from the config.
func NewChaosPlan(cfg ChaosConfig) *ChaosPlan { return chaos.New(cfg) }

// ChaosPlanForLevel returns a preset plan: 0 none, 1 timing noise,
// 2 transient faults + back-pressure, 3 fault storm.
func ChaosPlanForLevel(level int, seed int64) (*ChaosPlan, error) {
	return chaos.ForLevel(level, seed)
}

// RunChaos runs the launch under the plan and diffs the final memory
// against the functional oracle (restartability check). A nil plan runs
// clean.
func RunChaos(cfg Config, spec LaunchSpec, plan *ChaosPlan) (*ChaosResult, error) {
	return sim.RunChaos(cfg, spec, plan)
}

// CheckOracle re-executes the launch functionally on initial (a clone
// of the memory the run started from; overwritten) and returns up to 16
// bytes on which final disagrees: the restartability oracle.
func CheckOracle(l *Launch, initial, final *Memory, lineB int) ([]emu.Mismatch, error) {
	return sim.CheckOracle(l, initial, final, lineB)
}

// Device exceptions & resilience ------------------------------------------

// ExcepMode selects how a device-raised exception is delivered: precise
// (drain and kill the faulting warp) or preemptible (squash the block
// through the context-save path).
type ExcepMode = excep.Mode

// The two delivery modes.
const (
	// ExcepPrecise drains the faulting warp and reports a structured
	// device stack trace.
	ExcepPrecise = excep.ModePrecise
	// ExcepPreemptible squashes the faulting block via the paper's
	// SM-state save path; requires a preemptible scheme.
	ExcepPreemptible = excep.ModePreemptible
)

// ParseExcepMode parses "precise" or "preemptible".
func ParseExcepMode(s string) (ExcepMode, error) { return excep.ParseMode(s) }

// ExcepKind is the device-exception taxonomy (assert, illegal address,
// misaligned access, device-malloc OOM, trap).
type ExcepKind = excep.Kind

// ExcepRecord is one raised exception: coordinates, faulting PC and
// instruction, and the divergence-stack frames at the fault.
type ExcepRecord = excep.Record

// ExcepError is the structured error a run terminates with when the
// host observes device exceptions (recover it with errors.As).
type ExcepError = excep.Error

// FlipConfig parameterizes the seeded bit-flip injector of the
// resilience campaign (set it on Config.Excep.Flip).
type FlipConfig = excep.FlipConfig

// FlipOutcome classifies one resilience trial: masked, sdc, exception,
// crash, or hang.
type FlipOutcome = excep.Outcome

// ResilienceTrial is one classified flip-injection run.
type ResilienceTrial = sim.Trial

// ResilienceTrialOptions bounds one trial.
type ResilienceTrialOptions = sim.TrialOptions

// RunResilienceTrial runs the launch under cfg.Excep.Flip and
// classifies the outcome against a clean functional oracle.
func RunResilienceTrial(cfg Config, spec LaunchSpec, opt ResilienceTrialOptions) (*ResilienceTrial, error) {
	return sim.RunResilienceTrial(cfg, spec, opt)
}

// Checkpoint audits ------------------------------------------------------

// DivergenceError reports that an audit's deterministic re-execution
// did not reproduce the checkpointed state of one component (recover
// it with errors.As).
type DivergenceError = sim.DivergenceError

// ComponentDigest names one component's state digest at a cycle
// boundary (Simulator.ComponentDigests, the bisection probe).
type ComponentDigest = ckpt.SectionDigest

// Observability ----------------------------------------------------------

// Tracer records typed simulation events into per-SM ring buffers for
// Chrome-trace export. Attach one with Simulator.AttachTracer
// before Run; a nil or unattached tracer costs one branch per site.
type Tracer = obs.Tracer

// TracerOptions sizes and filters a Tracer.
type TracerOptions = obs.Options

// TraceEvent is one recorded simulation event.
type TraceEvent = obs.Event

// MetricsSnapshot is a point-in-time copy of the simulator's metrics
// registry (Result.Metrics), exportable as JSON or CSV.
type MetricsSnapshot = obs.Snapshot

// StallBreakdown is the per-reason warp stall accounting
// (Result.Stalls).
type StallBreakdown = obs.StallBreakdown

// StallReason indexes a StallBreakdown; String() returns its name.
type StallReason = obs.StallReason

// StallReasonFirst and StallReasonCount bound the StallReason range
// for iteration.
const (
	StallReasonFirst StallReason = 0
	StallReasonCount             = obs.NumStallReasons
)

// NewTracer builds a tracer from the options.
func NewTracer(o TracerOptions) *Tracer { return obs.New(o) }

// ParseTraceFilter parses a comma-separated list of event kinds or
// groups (all, pipeline, stall, fault, replay, switch, migrate, local)
// into a TracerOptions.Filter mask. Empty means everything.
func ParseTraceFilter(s string) (uint64, error) { return obs.ParseFilter(s) }

// Telemetry ------------------------------------------------------------

// SeriesView is the immutable view of the sampled telemetry series a
// run accumulates when Config.SampleEvery > 0 (Result.Series). Export
// it with WriteNDJSON or WriteCSV, or analyze it via Table.
type SeriesView = obs.SeriesView

// SeriesTable is a decoded telemetry series: absolute cycle stamps and
// per-column absolute values (SeriesView.Table, ReadSeriesNDJSON).
type SeriesTable = obs.SeriesTable

// SamplePoint is one decoded sample — the shape a watchdog
// StallReport embeds as its LastSample.
type SamplePoint = obs.SamplePoint

// IntervalStats is the derived per-interval analytics row (IPC,
// fault rate, stall attribution) produced by AnalyzeSeries.
type IntervalStats = obs.IntervalStats

// SeriesStats is the whole-run summary produced by SummarizeSeries:
// steady-state IPC, peak stall attribution, and fault phases.
type SeriesStats = obs.SeriesStats

// FaultPhase is one contiguous span of fault-active intervals inside
// SeriesStats.
type FaultPhase = obs.FaultPhase

// AnalyzeSeries derives per-interval rates from a decoded series.
func AnalyzeSeries(t *SeriesTable) []IntervalStats { return obs.Analyze(t) }

// SummarizeSeries reduces a decoded series to its run-level stats.
func SummarizeSeries(t *SeriesTable) SeriesStats { return obs.Summarize(t) }

// ReadSeriesNDJSON decodes a series previously written by
// SeriesView.WriteNDJSON (the gpusim -series format).
func ReadSeriesNDJSON(r io.Reader) (*SeriesTable, error) { return obs.ReadSeriesNDJSON(r) }

// TelemetrySnapshot is the read-only state generation a running
// simulation hands to its TelemetrySink at every publish interval.
type TelemetrySnapshot = sim.TelemetrySnapshot

// TelemetrySink receives telemetry snapshots on the simulation
// goroutine; see Simulator.SetTelemetrySink and the internal/obsrv
// live introspection server.
type TelemetrySink = sim.TelemetrySink

// Workloads --------------------------------------------------------------

// WorkloadParams configures a benchmark build.
type WorkloadParams = workloads.Params

// Placement selects buffer placement (resident, demand paging, lazy).
type Placement = workloads.Placement

// ResidentPlacement places all buffers in GPU memory (fault-free).
func ResidentPlacement() Placement { return workloads.Resident() }

// DemandPagingPlacement starts all data in CPU memory (Figure 12).
func DemandPagingPlacement() Placement { return workloads.DemandPaging() }

// LazyOutputPlacement leaves outputs and heap unallocated (Figures
// 13/14).
func LazyOutputPlacement() Placement { return workloads.LazyOutput() }

// BuildWorkload builds a named benchmark (see WorkloadNames).
func BuildWorkload(name string, p WorkloadParams) (LaunchSpec, error) {
	return workloads.Build(name, p)
}

// WorkloadNames lists benchmarks of a suite: "parboil", "halloc", "sdk"
// or "" for all.
func WorkloadNames(suite string) []string { return workloads.Names(suite) }

// WorkloadDescription returns a benchmark's one-line description.
func WorkloadDescription(name string) (string, error) {
	w, err := workloads.Get(name)
	if err != nil {
		return "", err
	}
	return w.Description, nil
}

// Kernel construction ----------------------------------------------------

// KernelBuilder assembles custom kernels against the simulator's ISA.
type KernelBuilder = kernel.Builder

// Kernel is a compiled kernel.
type Kernel = kernel.Kernel

// Launch pairs a kernel with its grid geometry.
type Launch = kernel.Launch

// Dim3 is a launch dimension.
type Dim3 = kernel.Dim3

// Reg is an ISA register operand.
type Reg = isa.Reg

// NewKernelBuilder starts building a kernel.
func NewKernelBuilder(name string) *KernelBuilder { return kernel.NewBuilder(name) }

// Memory is the functional global memory a launch executes against.
type Memory = emu.Memory

// NewMemory returns an empty functional memory.
func NewMemory() *Memory { return emu.NewMemory() }

// Region is a virtual memory region with an initial placement.
type Region = vm.Region

// Region kinds.
const (
	// RegionCPUInit: CPU-written input data (migrates on fault).
	RegionCPUInit = vm.RegionCPUInit
	// RegionCPUClean: CPU-owned but clean (allocation-only fault).
	RegionCPUClean = vm.RegionCPUClean
	// RegionLazy: unallocated until first touch.
	RegionLazy = vm.RegionLazy
	// RegionGPUInit: pre-placed in GPU memory (no faults).
	RegionGPUInit = vm.RegionGPUInit
)

// Experiments -------------------------------------------------------------

// ExperimentOptions configures a figure/table regeneration.
type ExperimentOptions = experiments.Options

// ExperimentResult is one regenerated figure, sweep or ablation.
type ExperimentResult = experiments.Result

// ExperimentDocument is every table and result one RunExperiments
// produced, in run order; String renders the text tables, and it
// marshals to one JSON document.
type ExperimentDocument = experiments.Document

// LogOverheads is one row of Table 2 (operand log area/power).
type LogOverheads = cacti.Overheads

// RunExperiments regenerates the named tables and figures of the
// paper's evaluation in the paper's order. The names are those the
// experiments command lists for -run. An unknown name fails before any
// simulation; a failed run returns the sections that finished.
func RunExperiments(names []string, opt ExperimentOptions) (*ExperimentDocument, error) {
	return experiments.Run(names, opt)
}
