package config

import (
	"strings"
	"testing"
)

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	if c.System.NumSMs != 16 {
		t.Errorf("NumSMs = %d, want 16", c.System.NumSMs)
	}
	if c.SM.MaxWarps != 64 || c.SM.MaxThreadBlocks != 16 {
		t.Errorf("SM residency = %d warps / %d blocks, want 64/16",
			c.SM.MaxWarps, c.SM.MaxThreadBlocks)
	}
	if c.SM.RegisterFileKB != 256 || c.SM.SharedMemoryKB != 32 {
		t.Errorf("RF/shared = %d/%d KB, want 256/32", c.SM.RegisterFileKB, c.SM.SharedMemoryKB)
	}
	if c.SM.L1SizeKB != 32 || c.SM.L1Ways != 4 || c.SM.L1LineB != 128 ||
		c.SM.L1MSHRs != 32 || c.SM.L1Latency != 40 {
		t.Errorf("L1 config mismatch: %+v", c.SM)
	}
	if c.System.L2SizeKB != 2048 || c.System.L2Ways != 8 || c.System.L2Latency != 70 ||
		c.System.L2MSHRs != 512 {
		t.Errorf("L2 config mismatch: %+v", c.System)
	}
	if c.System.L2TLBEntries != 1024 || c.System.L2TLBMSHRs != 128 {
		t.Errorf("L2 TLB config mismatch: %+v", c.System)
	}
	if c.System.PTWalkers != 64 || c.System.WalkLatency != 500 {
		t.Errorf("walker config mismatch: %+v", c.System)
	}
	if c.System.DRAMBandwidthGBs != 256 || c.System.DRAMLatency != 200 {
		t.Errorf("DRAM config mismatch: %+v", c.System)
	}
	if c.System.PageSize != 4096 || c.System.FaultGranularity != 64*1024 {
		t.Errorf("paging config mismatch: %+v", c.System)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		Baseline:             "baseline",
		WarpDisableCommit:    "wd-commit",
		WarpDisableLastCheck: "wd-lastcheck",
		ReplayQueue:          "replay-queue",
		OperandLog:           "operand-log",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("Scheme(%d).String() = %q, want %q", int(s), s.String(), name)
		}
	}
	if Baseline.Preemptible() {
		t.Error("baseline must not be preemptible")
	}
	for _, s := range []Scheme{WarpDisableCommit, WarpDisableLastCheck, ReplayQueue, OperandLog} {
		if !s.Preemptible() {
			t.Errorf("%v must be preemptible", s)
		}
	}
	if got := Scheme(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown scheme string = %q", got)
	}
}

func TestFaultCostConstants(t *testing.T) {
	nv, pc := NVLinkConfig(), PCIeConfig()
	if nv.FaultCosts.MigrateUS != 12 || nv.FaultCosts.AllocOnlyUS != 10 {
		t.Errorf("NVLink fault costs = %+v, want 12/10 us", nv.FaultCosts)
	}
	if pc.FaultCosts.MigrateUS != 25 || pc.FaultCosts.AllocOnlyUS != 12 {
		t.Errorf("PCIe fault costs = %+v, want 25/12 us", pc.FaultCosts)
	}
	if nv.FaultCosts.CPUHandleUS != 2 || nv.FaultCosts.GPUHandleUS != 20 {
		t.Errorf("handler costs = %+v, want 2/20 us", nv.FaultCosts)
	}
	if nv.Kind.String() != "NVLink" || pc.Kind.String() != "PCIe" {
		t.Errorf("interconnect names = %q/%q", nv.Kind, pc.Kind)
	}
}

func TestCyclesConversion(t *testing.T) {
	c := Default()
	if got := c.Cycles(12); got != 12000 {
		t.Errorf("Cycles(12us) = %d, want 12000 at 1 GHz", got)
	}
	if got := c.Cycles(0.5); got != 500 {
		t.Errorf("Cycles(0.5us) = %d, want 500", got)
	}
	if bpc := c.BytesPerCycle(); bpc != 256 {
		t.Errorf("BytesPerCycle = %v, want 256", bpc)
	}
}

func TestOperandLogEntries(t *testing.T) {
	ol := OperandLogConfig{SizeKB: 8, EntryBytes: 256}
	if got := ol.Entries(); got != 32 {
		t.Errorf("8KB/256B = %d entries, want 32", got)
	}
	ol.SizeKB = 32
	if got := ol.Entries(); got != 128 {
		t.Errorf("32KB/256B = %d entries, want 128", got)
	}
	if (OperandLogConfig{}).Entries() != 0 {
		t.Error("zero config should have zero entries")
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero warp size", func(c *Config) { c.SM.WarpSize = 0 }},
		{"zero warps", func(c *Config) { c.SM.MaxWarps = 0 }},
		{"zero SMs", func(c *Config) { c.System.NumSMs = 0 }},
		{"too many SMs", func(c *Config) { c.System.NumSMs = MaxSMs + 1 }},
		{"non power-of-two page", func(c *Config) { c.System.PageSize = 3000 }},
		{"granularity below page", func(c *Config) { c.System.FaultGranularity = 1024 }},
		{"granularity not multiple", func(c *Config) { c.System.FaultGranularity = 6144; c.System.PageSize = 4096 }},
		{"zero line size", func(c *Config) { c.SM.L1LineB = 0 }},
		{"log too small", func(c *Config) {
			c.Scheme = OperandLog
			c.SM.OperandLog = OperandLogConfig{SizeKB: 1, EntryBytes: 256}
		}},
		{"switching on baseline", func(c *Config) { c.Scheduler.Enabled = true }},
		{"flip seed without rate", func(c *Config) { c.Excep.Flip.Seed = 3 }},
		{"negative max cycles", func(c *Config) { c.MaxCycles = -5 }},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", m.name)
		}
	}
}
