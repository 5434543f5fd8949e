// Package config holds the simulation parameters of the modelled GPU
// system. The defaults reproduce Table 1 of the paper: an NVIDIA Kepler
// K20-class GPU with 16 SMs running at 1 GHz, attached to the host over
// NVLink or PCI Express 3.0.
package config

import (
	"fmt"

	"gpues/internal/excep"
)

// Scheme selects the SM pipeline organization with respect to exception
// support. Baseline is the stall-on-fault pipeline of current GPUs (no
// preemptible faults); the remaining schemes are the paper's proposals
// (Section 3).
type Scheme int

const (
	// Baseline stalls faulting instructions in the pipeline while the
	// CPU resolves the fault (treated as a very long TLB miss). Faulted
	// warps cannot be preempted.
	Baseline Scheme = iota
	// WarpDisableCommit treats global memory instructions as instruction
	// barriers: warp fetch is disabled from the fetch of a global memory
	// instruction until its commit.
	WarpDisableCommit
	// WarpDisableLastCheck re-enables warp fetch as soon as the last
	// coalesced request of the memory instruction passes its TLB check
	// (the earliest fault-safe point).
	WarpDisableLastCheck
	// ReplayQueue captures in-flight global memory instructions in a
	// replay queue and releases their source operand scoreboards only
	// after the last TLB check.
	ReplayQueue
	// OperandLog additionally logs source operands of global memory
	// instructions so the baseline early scoreboard release is kept.
	OperandLog
)

// String returns the name used in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case WarpDisableCommit:
		return "wd-commit"
	case WarpDisableLastCheck:
		return "wd-lastcheck"
	case ReplayQueue:
		return "replay-queue"
	case OperandLog:
		return "operand-log"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Preemptible reports whether the scheme supports preempting and
// restarting faulted warps (i.e., any scheme other than the baseline).
func (s Scheme) Preemptible() bool { return s != Baseline }

// Interconnect identifies the CPU-GPU system interconnect.
type Interconnect int

const (
	// NVLink models an NVLink 1.0-class link.
	NVLink Interconnect = iota
	// PCIe models a PCI Express 3.0 x16 link.
	PCIe
)

// String returns the name used in the paper's figures.
func (ic Interconnect) String() string {
	if ic == NVLink {
		return "NVLink"
	}
	return "PCIe"
}

// SMConfig holds the per-SM parameters (Table 1, top half).
type SMConfig struct {
	MaxThreadBlocks int // resident thread blocks per SM
	MaxWarps        int // resident warps per SM
	WarpSize        int // threads per warp
	RegisterFileKB  int // unified register file size
	SharedMemoryKB  int // scratch-pad (CUDA shared memory) size
	IssueWidth      int // instructions issued per cycle (total)
	IssueWarps      int // distinct warps that may issue in one cycle
	// GreedyIssue selects a greedy-then-oldest warp scheduler: the warp
	// that issued last keeps priority until it stalls. False selects
	// loose round-robin (the baseline's behaviour). An extension beyond
	// the paper, exposed for scheduling studies.
	GreedyIssue bool

	// Back-end execution units.
	MathUnits    int
	SpecialUnits int
	LoadStore    int
	BranchUnits  int

	// Back-end latencies in cycles (not in Table 1; chosen to match a
	// Kepler-class SM).
	MathLatency    int
	SpecialLatency int
	BranchLatency  int
	SharedLatency  int

	// L1 data cache.
	L1SizeKB   int
	L1Ways     int
	L1LineB    int
	L1MSHRs    int
	L1Latency  int
	L1TLBSize  int
	L1TLBWays  int
	L1TLBLat   int
	OperandLog OperandLogConfig
}

// OperandLogConfig configures the operand log scheme (Section 3.3).
type OperandLogConfig struct {
	// SizeKB is the per-SM log size. The log is partitioned evenly among
	// the thread blocks resident at kernel launch.
	SizeKB int
	// EntryBytes is the size of one log entry: one 8-byte operand for
	// each of the 32 threads of a warp (512 B would hold address+data;
	// the paper's entry is one operand wide: loads take one entry,
	// stores two).
	EntryBytes int
}

// Entries returns the total number of log entries.
func (c OperandLogConfig) Entries() int {
	if c.EntryBytes == 0 {
		return 0
	}
	return c.SizeKB * 1024 / c.EntryBytes
}

// SystemConfig holds the chip- and system-level parameters (Table 1,
// bottom half).
type SystemConfig struct {
	NumSMs       int
	FrequencyGHz float64

	L2SizeKB  int
	L2Ways    int
	L2LineB   int
	L2MSHRs   int
	L2Latency int

	L2TLBEntries int
	L2TLBWays    int
	L2TLBMSHRs   int
	L2TLBLatency int

	PTWalkers   int
	WalkLatency int

	DRAMBandwidthGBs float64
	DRAMLatency      int

	PageSize          int // GPU page size in bytes (4 KB)
	FaultGranularity  int // handling/migration granularity (64 KB)
	GPUMemoryMB       int // GPU physical memory
	CPUMemoryMB       int // host physical memory visible to the model
	PendingFaultQueue int // capacity of the global pending fault queue
}

// FaultCosts holds the measured principal components of a page fault
// round trip (Section 5.3/5.4), in microseconds.
type FaultCosts struct {
	MigrateUS   float64 // fault requiring a data transfer (page dirty in CPU)
	AllocOnlyUS float64 // fault requiring only allocation (page not dirty)
	CPUHandleUS float64 // CPU handler occupancy per fault
	GPUHandleUS float64 // GPU-local handler latency per fault
}

// InterconnectConfig describes the CPU-GPU link.
type InterconnectConfig struct {
	Kind           Interconnect
	BandwidthGBs   float64 // unidirectional payload bandwidth
	LatencyUS      float64 // one-way signalling latency
	FaultCosts     FaultCosts
	DuplexChannels int // concurrent transfers the link sustains
}

// SchedulerConfig configures the use-case 1 local scheduler (Section 4.1).
type SchedulerConfig struct {
	// MaxExtraBlocks bounds the off-chip blocks a single SM may
	// accumulate (4 in the paper's configuration).
	MaxExtraBlocks int
	// SwitchThreshold is the minimum position in the global pending
	// fault queue for which switching out the faulted block is deemed
	// worthwhile.
	SwitchThreshold int
	// IdealContextSwitch charges 1 cycle for save and 1 for restore
	// instead of the state-size-derived cost.
	IdealContextSwitch bool
	// Enabled turns block switching on.
	Enabled bool
}

// LocalHandlerConfig configures use-case 2 (Section 4.2).
type LocalHandlerConfig struct {
	// Enabled routes first-touch (allocation-only) faults to the
	// GPU-resident handler instead of the CPU.
	Enabled bool
	// Concurrency bounds how many handler invocations run usefully in
	// parallel across the GPU; the handlers serialize on system-level
	// synchronization (Szymanski's lock around shared page table
	// updates). 0 selects the default of one handler per five SMs
	// (3 for the 16-SM baseline), which matches the measured
	// scalability the paper reports.
	Concurrency int
}

// ExcepConfig configures device-side exception handling (the taxonomy
// and delivery modes of internal/excep) and the seeded bit-flip
// resilience campaign.
type ExcepConfig struct {
	// Mode selects exception delivery: precise (drain outstanding
	// replays, kill the offending warp, run the rest of the machine on)
	// or preemptible (squash the offending block through the
	// block-switch save path). Preemptible delivery needs a scheme that
	// can preempt, i.e. any scheme other than the baseline.
	Mode excep.Mode
	// PollEvery is the host's exception-flag polling granularity in
	// cycles — the model's API-call boundary. The run terminates with
	// the structured exception error at the first poll boundary after
	// the first record posts (or at launch completion, if sooner).
	// 0 selects the host default.
	PollEvery int64
	// Flip is the seeded architectural bit-flip injection campaign;
	// a zero Rate disables injection entirely.
	Flip excep.FlipConfig
}

// Config is the complete configuration of a simulation.
type Config struct {
	SM        SMConfig
	System    SystemConfig
	Link      InterconnectConfig
	Scheme    Scheme
	Scheduler SchedulerConfig
	Local     LocalHandlerConfig
	Excep     ExcepConfig

	// DemandPaging starts all data in CPU memory and migrates on fault.
	// When false, data is pre-placed in GPU memory (explicit transfers).
	DemandPaging bool

	// SampleEvery, when positive, samples every registered metric into
	// the in-memory telemetry series each time the main loop crosses a
	// multiple of this many cycles (right after the tick phase, so a
	// sampled run's cycles and digests match an unsampled one's).
	// 0 disables the sampler. SampleEvery is excluded from the
	// checkpoint config fingerprint.
	SampleEvery int64

	// MaxCycles aborts the simulation past this many cycles (a last-ditch
	// livelock bound; the progress watchdog normally fires far earlier).
	// 0 selects the simulator default.
	MaxCycles int64
	// ProgressWindow is the watchdog window in cycles: a run that makes
	// no progress (no commits, no fault resolutions, no block or context
	// movement) for a full window aborts with a structured stall report.
	// 0 selects the simulator default; negative disables the watchdog.
	ProgressWindow int64
}

// Default returns the Table 1 configuration with an NVLink interconnect
// and the baseline pipeline.
func Default() Config {
	return Config{
		SM: SMConfig{
			MaxThreadBlocks: 16,
			MaxWarps:        64,
			WarpSize:        32,
			RegisterFileKB:  256,
			SharedMemoryKB:  32,
			IssueWidth:      2,
			IssueWarps:      2,
			MathUnits:       2,
			SpecialUnits:    1,
			LoadStore:       1,
			BranchUnits:     1,
			MathLatency:     10,
			SpecialLatency:  16,
			BranchLatency:   8,
			SharedLatency:   24,
			L1SizeKB:        32,
			L1Ways:          4,
			L1LineB:         128,
			L1MSHRs:         32,
			L1Latency:       40,
			L1TLBSize:       32,
			L1TLBWays:       8,
			L1TLBLat:        1,
			OperandLog: OperandLogConfig{
				SizeKB:     16,
				EntryBytes: 256, // 32 threads x 8 B operand
			},
		},
		System: SystemConfig{
			NumSMs:            16,
			FrequencyGHz:      1.0,
			L2SizeKB:          2048,
			L2Ways:            8,
			L2LineB:           128,
			L2MSHRs:           512,
			L2Latency:         70,
			L2TLBEntries:      1024,
			L2TLBWays:         8,
			L2TLBMSHRs:        128,
			L2TLBLatency:      70,
			PTWalkers:         64,
			WalkLatency:       500,
			DRAMBandwidthGBs:  256,
			DRAMLatency:       200,
			PageSize:          4096,
			FaultGranularity:  64 * 1024,
			GPUMemoryMB:       4096,
			CPUMemoryMB:       8192,
			PendingFaultQueue: 4096,
		},
		Link:   NVLinkConfig(),
		Scheme: Baseline,
		Scheduler: SchedulerConfig{
			MaxExtraBlocks:  4,
			SwitchThreshold: 1,
		},
		Excep: ExcepConfig{
			Mode:      excep.ModePrecise,
			PollEvery: 1024,
		},
	}
}

// NVLinkConfig returns the NVLink interconnect parameters with the fault
// costs measured in Section 5.3 (12 us with transfer, 10 us alloc-only).
func NVLinkConfig() InterconnectConfig {
	return InterconnectConfig{
		Kind:         NVLink,
		BandwidthGBs: 40,
		LatencyUS:    1.0,
		FaultCosts: FaultCosts{
			MigrateUS:   12,
			AllocOnlyUS: 10,
			CPUHandleUS: 2,
			GPUHandleUS: 20,
		},
		DuplexChannels: 2,
	}
}

// PCIeConfig returns the PCIe 3.0 interconnect parameters with the fault
// costs measured in Section 5.3 (25 us with transfer, 12 us alloc-only).
func PCIeConfig() InterconnectConfig {
	return InterconnectConfig{
		Kind:         PCIe,
		BandwidthGBs: 12,
		LatencyUS:    2.5,
		FaultCosts: FaultCosts{
			MigrateUS:   25,
			AllocOnlyUS: 12,
			CPUHandleUS: 2,
			GPUHandleUS: 20,
		},
		DuplexChannels: 1,
	}
}

// Cycles converts a duration in microseconds to clock cycles at the
// configured frequency.
func (c *Config) Cycles(us float64) int64 {
	return int64(us * c.System.FrequencyGHz * 1000)
}

// BytesPerCycle returns the DRAM bandwidth expressed in bytes per core
// clock cycle.
func (c *Config) BytesPerCycle() float64 {
	return c.System.DRAMBandwidthGBs / c.System.FrequencyGHz
}

// Validate checks the configuration for inconsistencies that would make
// the simulation meaningless, returning a descriptive error.
func (c *Config) Validate() error {
	switch {
	case c.SM.WarpSize <= 0:
		return fmt.Errorf("config: warp size must be positive, got %d", c.SM.WarpSize)
	case c.SM.MaxWarps <= 0 || c.SM.MaxThreadBlocks <= 0:
		return fmt.Errorf("config: SM residency limits must be positive (warps=%d blocks=%d)",
			c.SM.MaxWarps, c.SM.MaxThreadBlocks)
	case c.System.NumSMs <= 0:
		return fmt.Errorf("config: need at least one SM, got %d", c.System.NumSMs)
	case c.System.PageSize <= 0 || c.System.PageSize&(c.System.PageSize-1) != 0:
		return fmt.Errorf("config: page size must be a positive power of two, got %d", c.System.PageSize)
	case c.System.FaultGranularity < c.System.PageSize:
		return fmt.Errorf("config: fault granularity %d below page size %d",
			c.System.FaultGranularity, c.System.PageSize)
	case c.System.FaultGranularity%c.System.PageSize != 0:
		return fmt.Errorf("config: fault granularity %d not a multiple of page size %d",
			c.System.FaultGranularity, c.System.PageSize)
	case c.SM.L1LineB <= 0 || c.System.L2LineB <= 0:
		return fmt.Errorf("config: cache line sizes must be positive")
	case c.Scheme == OperandLog && c.SM.OperandLog.Entries() < c.SM.MaxThreadBlocks:
		return fmt.Errorf("config: operand log of %d entries cannot give one entry to each of %d blocks",
			c.SM.OperandLog.Entries(), c.SM.MaxThreadBlocks)
	case c.Excep.Mode < 0 || c.Excep.Mode >= excep.NumModes:
		return fmt.Errorf("config: unknown exception mode %d", int(c.Excep.Mode))
	case c.Excep.Mode == excep.ModePreemptible && !c.Scheme.Preemptible():
		return fmt.Errorf("config: preemptible exception delivery requires a preemptible scheme, not %s",
			c.Scheme)
	case c.Scheduler.Enabled && !c.Scheme.Preemptible():
		return fmt.Errorf("config: block switching requires a preemptible scheme, not %s", c.Scheme)
	case c.Excep.PollEvery < 0:
		return fmt.Errorf("config: exception poll period %d must not be negative", c.Excep.PollEvery)
	case c.Excep.Flip.Rate < 0 || c.Excep.Flip.Rate > 1:
		return fmt.Errorf("config: flip rate %g outside [0,1]", c.Excep.Flip.Rate)
	case c.Excep.Flip.ProtectThreads < 0:
		return fmt.Errorf("config: protected thread count %d must not be negative",
			c.Excep.Flip.ProtectThreads)
	case c.Excep.Flip.Seed != 0 && c.Excep.Flip.Rate == 0:
		return fmt.Errorf("config: flip seed %d needs a flip rate above 0", c.Excep.Flip.Seed)
	case c.SampleEvery < 0:
		return fmt.Errorf("config: sample period %d must not be negative (0 = sampling off)",
			c.SampleEvery)
	case c.MaxCycles < 0:
		return fmt.Errorf("config: max cycles %d must not be negative (0 = simulator default)",
			c.MaxCycles)
	}
	return nil
}
