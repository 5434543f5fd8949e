package sim

import (
	"runtime"
	"testing"
	"time"

	"gpues/internal/ckpt"
	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/vm"
)

// multiWave is a grid of four waves: 256 blocks on 16 SMs that take
// four blocks each.
func multiWave(t *testing.T) (config.Config, func() LaunchSpec) {
	cfg := config.Default()
	cfg.SM.MaxThreadBlocks = 4
	return cfg, func() LaunchSpec { return testSpec(t, 256, 128, vm.RegionGPUInit, vm.RegionGPUInit) }
}

// memoryDigestAfter is the emu.memory section digest of spec's memory
// after its first n blocks are emulated in order, with no divergence
// nonce.
func memoryDigestAfter(t *testing.T, spec LaunchSpec, lineSize, n int) uint64 {
	t.Helper()
	e, err := emu.New(spec.Launch, spec.Memory, lineSize)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < n; b++ {
		bt, err := e.EmulateBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		e.Release(bt)
	}
	w := ckpt.NewWriter()
	spec.Memory.SaveState(w)
	w.U64(0)
	return ckpt.Digest(w.Data())
}

// TestDigestOneWaveAhead checks what a checkpoint's emu.memory section
// digests while a dispatcher emulates ahead: the memory after exactly
// min(total, issued + one wave) blocks, at every cycle checked, so the
// digest depends on the cycle alone and not on how far the filler got.
func TestDigestOneWaveAhead(t *testing.T) {
	cfg, spec := multiWave(t)
	s, err := New(cfg, spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	total, wave := s.spec.Launch.Blocks(), s.disp.Issued()
	if wave >= total {
		t.Fatalf("the initial fill took all %d blocks: the grid is one wave", total)
	}
	checked := 0
	for at := int64(0); ; at += 400 {
		reached, err := s.StepTo(at)
		if err != nil {
			t.Fatal(err)
		}
		if !reached {
			break
		}
		var got uint64
		for _, sec := range s.Capture().Sections {
			if sec.Name == "emu.memory" {
				got = sec.Digest
			}
		}
		n := min(total, s.disp.Issued()+wave)
		if want := memoryDigestAfter(t, spec(), cfg.SM.L1LineB, n); got != want {
			t.Fatalf("cycle %d, %d blocks issued: emu.memory digest %#x, want the memory after %d blocks (%#x)",
				s.Cycle(), s.disp.Issued(), got, n, want)
		}
		checked++
	}
	if checked < 3 {
		t.Fatalf("checked %d cycles, want at least 3", checked)
	}
}

// TestDroppedRunLeavesNoGoroutine drops a multi-wave simulation after
// one StepTo slice, as a simserv worker does when it loses a lease: the
// filler must exit on its own once the ring is full.
func TestDroppedRunLeavesNoGoroutine(t *testing.T) {
	cfg, spec := multiWave(t)
	base := runtime.NumGoroutine()
	func() {
		s, err := New(cfg, spec())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		if s.disp.Issued() >= s.spec.Launch.Blocks() {
			t.Fatal("the grid is one wave: nothing is emulated ahead")
		}
		if _, err := s.StepTo(500); err != nil {
			t.Fatal(err)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10 s after the run was dropped, %d before it", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
