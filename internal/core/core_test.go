package core

import (
	"strings"
	"testing"
	"unsafe"

	"gpues/internal/clock"
	"gpues/internal/vm"
)

// recResolver records service requests and resolves them after a fixed
// delay.
type recResolver struct {
	q     *clock.Queue
	delay int64
	calls []uint64
	smIDs []int
}

func (r *recResolver) Service(region uint64, kind vm.FaultKind, smID int, done clock.Event) {
	r.calls = append(r.calls, region)
	r.smIDs = append(r.smIDs, smID)
	r.q.After(r.delay, done.Fn, done.Arg)
}

// on registers a test callback as a client of u and returns the waiter
// that runs it.
func on(u *FaultUnit, fn func()) int64 { return u.Attach(func(int64) { fn() }) }

// ev wraps a test callback as an event.
func ev(fn func()) clock.Event { return clock.Event{Fn: func(int64) { fn() }} }

func drain(q *clock.Queue) {
	for q.Len() > 0 {
		q.Step()
	}
}

func TestFaultUnitMergesRegions(t *testing.T) {
	q := clock.New()
	cpu := &recResolver{q: q, delay: 100}
	fu, err := NewFaultUnit(q, 64*1024, cpu, nil)
	if err != nil {
		t.Fatal(err)
	}
	resolved := 0
	// Three pages in the same 64 KB region, one in another.
	p0 := fu.RaiseFault(0x10000, vm.FaultMigrate, 0, on(fu, func() { resolved++ }))
	p1 := fu.RaiseFault(0x12000, vm.FaultMigrate, 1, on(fu, func() { resolved++ }))
	p2 := fu.RaiseFault(0x1f000, vm.FaultMigrate, 2, on(fu, func() { resolved++ }))
	p3 := fu.RaiseFault(0x20000, vm.FaultMigrate, 3, on(fu, func() { resolved++ }))
	if p0 != 0 || p1 != 0 || p2 != 0 {
		t.Errorf("merged faults share queue position 0: got %d %d %d", p0, p1, p2)
	}
	if p3 != 1 {
		t.Errorf("second region position = %d, want 1", p3)
	}
	if fu.Pending() != 2 {
		t.Errorf("pending regions = %d, want 2", fu.Pending())
	}
	drain(q)
	if resolved != 4 {
		t.Errorf("resolved callbacks = %d, want 4", resolved)
	}
	if len(cpu.calls) != 2 {
		t.Errorf("resolver served %d regions, want 2 (merged)", len(cpu.calls))
	}
	st := fu.Stats()
	if st.Raised != 4 || st.Regions != 2 || st.Merged != 2 || st.MaxQueue != 2 {
		t.Errorf("stats = %+v", st)
	}
	if fu.Pending() != 0 {
		t.Errorf("pending after drain = %d", fu.Pending())
	}
}

// TestFaultUnitSteadyStateAllocs: once its region records are warm, the
// fault unit raises, merges and resolves faults without allocating.
func TestFaultUnitSteadyStateAllocs(t *testing.T) {
	q := clock.New()
	fu, _ := NewFaultUnit(q, 64*1024, stubResolver{q}, nil)
	resolved := 0
	done := on(fu, func() { resolved++ })
	round := func() {
		fu.RaiseFault(0x10000, vm.FaultMigrate, 0, done)
		fu.RaiseFault(0x12000, vm.FaultMigrate, 1, done) // merges
		fu.RaiseFault(0x20000, vm.FaultAllocOnly, 2, done)
		drain(q)
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a warm raise-and-resolve round allocates %v times, want 0", allocs)
	}
	if resolved != 3*102 || fu.Pending() != 0 {
		t.Fatalf("resolved %d with %d pending, want %d and 0", resolved, fu.Pending(), 3*102)
	}
}

// stubResolver resolves every region 10 cycles on, recording nothing.
type stubResolver struct{ q *clock.Queue }

func (r stubResolver) Service(region uint64, kind vm.FaultKind, smID int, done clock.Event) {
	r.q.After(10, done.Fn, done.Arg)
}

func TestFaultUnitRouting(t *testing.T) {
	q := clock.New()
	cpu := &recResolver{q: q, delay: 10}
	local := &recResolver{q: q, delay: 10}
	fu, _ := NewFaultUnit(q, 64*1024, cpu, local)
	fu.RaiseFault(0x10000, vm.FaultMigrate, 0, on(fu, func() {}))
	fu.RaiseFault(0x20000, vm.FaultAllocOnly, 1, on(fu, func() {}))
	drain(q)
	if len(cpu.calls) != 1 || cpu.calls[0] != 0x10000 {
		t.Errorf("CPU served %v, want [0x10000] (migrations always go to the CPU)", cpu.calls)
	}
	if len(local.calls) != 1 || local.calls[0] != 0x20000 {
		t.Errorf("local served %v, want [0x20000]", local.calls)
	}
	st := fu.Stats()
	if st.RoutedCPU != 1 || st.RoutedLocal != 1 {
		t.Errorf("routing stats = %+v", st)
	}
	// Without a local handler, alloc-only faults go to the CPU.
	fu2, _ := NewFaultUnit(q, 64*1024, cpu, nil)
	fu2.RaiseFault(0x30000, vm.FaultAllocOnly, 0, on(fu2, func() {}))
	drain(q)
	if len(cpu.calls) != 2 {
		t.Error("alloc-only fault not routed to CPU when local handling is off")
	}
}

func TestFaultUnitInvalidAborts(t *testing.T) {
	q := clock.New()
	cpu := &recResolver{q: q, delay: 10}
	fu, _ := NewFaultUnit(q, 64*1024, cpu, nil)
	fu.RaiseFault(0xdead0000, vm.FaultInvalid, 5, on(fu, func() {}))
	if fu.Err() == nil {
		t.Fatal("invalid fault must set the abort error")
	}
	if !strings.Contains(fu.Err().Error(), "SM 5") {
		t.Errorf("abort error %q should name the SM", fu.Err())
	}
	if len(cpu.calls) != 0 {
		t.Error("invalid fault must not be serviced")
	}
}

func TestFaultUnitValidation(t *testing.T) {
	q := clock.New()
	if _, err := NewFaultUnit(q, 0, &recResolver{}, nil); err == nil {
		t.Error("zero granularity accepted")
	}
	if _, err := NewFaultUnit(q, 3000, &recResolver{}, nil); err == nil {
		t.Error("non power-of-two granularity accepted")
	}
	if _, err := NewFaultUnit(q, 65536, nil, nil); err == nil {
		t.Error("nil CPU resolver accepted")
	}
}

func newAS(t *testing.T) *vm.AddressSpace {
	t.Helper()
	as, err := vm.NewAddressSpace(4096, 64<<20, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.AddRegion(vm.Region{Name: "heap", Base: 0, Size: 32 << 20, Kind: vm.RegionLazy}); err != nil {
		t.Fatal(err)
	}
	return as
}

func TestLocalHandlerMapsRegion(t *testing.T) {
	q := clock.New()
	as := newAS(t)
	lh, err := NewLocalHandler(q, as, 16, 64*1024, 20000, 0)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt int64 = -1
	lh.Service(0x10000, vm.FaultAllocOnly, 3, ev(func() { doneAt = q.Now() }))
	drain(q)
	if doneAt != 20000 {
		t.Errorf("handler completed at %d, want 20000 (20 us at 1 GHz)", doneAt)
	}
	// All 16 pages of the region mapped.
	for p := uint64(0x10000); p < 0x20000; p += 4096 {
		if as.Classify(p) != vm.FaultNone {
			t.Errorf("page %#x not mapped after handling", p)
		}
	}
	st := lh.Stats()
	if st.Handled != 1 || st.PagesMapped != 16 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLocalHandlerConcurrencyBound(t *testing.T) {
	q := clock.New()
	as := newAS(t)
	lh, _ := NewLocalHandler(q, as, 16, 64*1024, 1000, 0)
	conc := DefaultHandlerConcurrency(16)
	if conc != 3 {
		t.Fatalf("default concurrency for 16 SMs = %d, want 3", conc)
	}
	var times []int64
	// Twice the slot count: the second wave queues behind the first.
	for i := 0; i < 2*conc; i++ {
		lh.Service(uint64(i)<<16, vm.FaultAllocOnly, i%16, ev(func() { times = append(times, q.Now()) }))
	}
	drain(q)
	first, second := 0, 0
	for _, ts := range times {
		switch ts {
		case 1000:
			first++
		case 2000:
			second++
		default:
			t.Errorf("completion at %d, want 1000 or 2000", ts)
		}
	}
	if first != conc || second != conc {
		t.Errorf("wave sizes = %d/%d, want %d/%d", first, second, conc, conc)
	}
	if lh.Stats().SerialCycles == 0 {
		t.Error("queued handlers must record serialization")
	}
}

func TestLocalHandlerUsesSMPartition(t *testing.T) {
	q := clock.New()
	as := newAS(t)
	lh, _ := NewLocalHandler(q, as, 4, 64*1024, 100, 0)
	lh.Service(0x40000, vm.FaultAllocOnly, 2, ev(func() {}))
	drain(q)
	if lh.allocs[2].Allocated() != 16 {
		t.Errorf("SM 2 partition allocated %d frames, want 16", lh.allocs[2].Allocated())
	}
	for i, a := range lh.allocs {
		if i != 2 && a.Allocated() != 0 {
			t.Errorf("partition %d allocated %d frames, want 0", i, a.Allocated())
		}
	}
	// Out-of-range SM ids clamp rather than crash.
	lh.Service(0x100000, vm.FaultAllocOnly, -1, ev(func() {}))
	drain(q)
}

func TestLocalHandlerValidation(t *testing.T) {
	q := clock.New()
	as := newAS(t)
	if _, err := NewLocalHandler(q, as, 0, 65536, 100, 0); err == nil {
		t.Error("zero SMs accepted")
	}
	if _, err := NewLocalHandler(q, as, 4, 65536, 0, 0); err == nil {
		t.Error("zero handler cost accepted")
	}
}

// TestRecordSizes pins the size of a region's waiter entry, so that
// growing it is a visible decision: a fault storm merges up to 8,192
// raises into one region.
func TestRecordSizes(t *testing.T) {
	var rf regionFault
	if n := unsafe.Sizeof(rf.waiters[0]); n != 8 {
		t.Errorf("region waiter is %d bytes, want 8", n)
	}
}
