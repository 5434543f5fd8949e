package host

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"gpues/internal/clock"
	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/interconnect"
	"gpues/internal/isa"
	"gpues/internal/kernel"
	"gpues/internal/vm"
)

// on wraps a test callback as an event.
func on(fn func()) clock.Event { return clock.Event{Fn: func(int64) { fn() }} }

func drain(q *clock.Queue) {
	for q.Len() > 0 {
		q.Step()
	}
}

// fakeEmulator emulates blocks with fn and records the traces handed
// back to it.
type fakeEmulator struct {
	fn       func(int) (*emu.BlockTrace, error)
	released []*emu.BlockTrace
}

func (f *fakeEmulator) EmulateBlock(b int) (*emu.BlockTrace, error) { return f.fn(b) }
func (f *fakeEmulator) Release(bt *emu.BlockTrace)                  { f.released = append(f.released, bt) }

func TestDispatcherHandsBlocksInOrder(t *testing.T) {
	emulated := []int{}
	fe := &fakeEmulator{fn: func(b int) (*emu.BlockTrace, error) {
		emulated = append(emulated, b)
		return &emu.BlockTrace{BlockID: b}, nil
	}}
	d, err := NewDispatcher(5, fe)
	if err != nil {
		t.Fatal(err)
	}
	var bts []*emu.BlockTrace
	for i := 0; i < 5; i++ {
		bt, ok := d.NextBlock(i % 2)
		if !ok || bt.BlockID != i {
			t.Fatalf("block %d: got %v/%v", i, bt, ok)
		}
		bts = append(bts, bt)
	}
	if _, ok := d.NextBlock(0); ok {
		t.Error("exhausted dispatcher handed out a block")
	}
	if d.PendingBlocks() != 0 {
		t.Errorf("pending = %d", d.PendingBlocks())
	}
	for i := 0; i < 5; i++ {
		if d.AllDone() {
			t.Fatalf("AllDone before %d completions", i)
		}
		d.BlockDone(0, bts[i])
	}
	if !d.AllDone() || d.Completed() != 5 {
		t.Errorf("completed = %d, allDone = %v", d.Completed(), d.AllDone())
	}
	// Every finished trace goes back to the emulator, in completion order.
	for i, bt := range fe.released {
		if bt != bts[i] {
			t.Errorf("released trace %d is block %d, want %d", i, bt.BlockID, i)
		}
	}
	if len(fe.released) != 5 {
		t.Errorf("%d traces handed back, want 5", len(fe.released))
	}
	if len(emulated) != 5 {
		t.Errorf("lazy emulation ran %d times, want 5", len(emulated))
	}
}

func TestDispatcherPropagatesEmulationError(t *testing.T) {
	boom := errors.New("boom")
	d, _ := NewDispatcher(3, &fakeEmulator{fn: func(b int) (*emu.BlockTrace, error) {
		if b == 1 {
			return nil, boom
		}
		return &emu.BlockTrace{BlockID: b}, nil
	}})
	if _, ok := d.NextBlock(0); !ok {
		t.Fatal("first block failed")
	}
	if _, ok := d.NextBlock(0); ok {
		t.Fatal("errored block handed out")
	}
	if !errors.Is(d.Err(), boom) {
		t.Errorf("Err() = %v", d.Err())
	}
	if _, ok := d.NextBlock(0); ok {
		t.Error("dispatcher must stay dead after an error")
	}
}

// orderLaunch is a grid of blocks of 64 threads in which every thread
// takes a ticket from a global counter with an atomic add and stores it
// at its global thread index in out. Emulated in block-ID order, block
// b's threads hold tickets [64b, 64b+64).
func orderLaunch(t *testing.T, blocks int) (*kernel.Launch, *emu.Memory) {
	t.Helper()
	b := kernel.NewBuilder("tickets")
	pc, po := b.AddParam(orderCounter), b.AddParam(orderOut)
	tid, cta, ntid, a, one, ticket := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.S2R(tid, isa.SRTidX)
	b.S2R(cta, isa.SRCtaIDX)
	b.S2R(ntid, isa.SRNTidX)
	b.LoadParam(a, pc)
	b.MovI(one, 1)
	b.AtomGlobal(isa.AtomAdd, ticket, a, one, isa.RZ, 8)
	b.IMad(tid, cta, ntid, tid)
	b.Shl(tid, tid, 3)
	b.LoadParam(a, po)
	b.IAdd(a, a, tid, 0)
	b.StGlobal(a, 0, ticket, 8)
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &kernel.Launch{Kernel: k, Grid: kernel.Dim3{X: blocks}, Block: kernel.Dim3{X: 64}}, emu.NewMemory()
}

const orderCounter, orderOut = uint64(0x100000), uint64(0x200000)

// recordingEmulator records the blocks a real emulator is asked for,
// from whichever goroutine asks.
type recordingEmulator struct {
	*emu.Emulator
	mu    sync.Mutex
	order []int
}

func (r *recordingEmulator) EmulateBlock(b int) (*emu.BlockTrace, error) {
	r.mu.Lock()
	r.order = append(r.order, b)
	r.mu.Unlock()
	return r.Emulator.EmulateBlock(b)
}

func (r *recordingEmulator) emulated() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

// TestDispatcherEmulatesOneWaveAhead hands a grid out after an initial
// fill of one wave, handing each oldest trace back while the filler
// runs: blocks come out in order, every settle leaves exactly one wave
// emulated ahead of dispatch, and the emulation order is block-ID order
// (each block's threads hold their own range of tickets).
func TestDispatcherEmulatesOneWaveAhead(t *testing.T) {
	const total, wave = 40, 8
	l, mem := orderLaunch(t, total)
	e, err := emu.New(l, mem, 128)
	if err != nil {
		t.Fatal(err)
	}
	re := &recordingEmulator{Emulator: e}
	d, err := NewDispatcher(total, re)
	if err != nil {
		t.Fatal(err)
	}
	var live []*emu.BlockTrace
	take := func() {
		bt, ok := d.NextBlock(0)
		if !ok || bt.BlockID != d.Issued()-1 {
			t.Fatalf("block %d: got %v, %v (%v)", d.Issued(), bt, ok, d.Err())
		}
		live = append(live, bt)
	}
	for d.Issued() < wave {
		take()
	}
	d.EmulateAhead()
	for d.Issued() < total {
		d.BlockDone(0, live[0])
		live = live[1:]
		take()
		if d.Issued()%5 == 0 {
			d.Settle()
			if got, want := re.emulated(), min(total, d.Issued()+wave); got != want {
				t.Fatalf("%d blocks issued: %d emulated after Settle, want %d", d.Issued(), got, want)
			}
		}
	}
	for _, bt := range live {
		d.BlockDone(0, bt)
	}
	d.Settle()
	for i, b := range re.order {
		if b != i {
			t.Fatalf("emulation %d ran block %d", i, b)
		}
	}
	for i := 0; i < total*64; i++ {
		if ticket := mem.ReadU64(orderOut + uint64(i)*8); ticket/64 != uint64(i/64) {
			t.Fatalf("thread %d of block %d holds ticket %d", i%64, i/64, ticket)
		}
	}
}

// TestDispatcherAheadStopsAtFailingBlock: the filler stops at the first
// block whose emulation fails, the blocks before it are handed out, and
// the error surfaces when the failing block is due.
func TestDispatcherAheadStopsAtFailingBlock(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	d, _ := NewDispatcher(20, &fakeEmulator{fn: func(b int) (*emu.BlockTrace, error) {
		calls.Add(1)
		if b == 6 {
			return nil, boom
		}
		return &emu.BlockTrace{BlockID: b}, nil
	}})
	for i := 0; i < 4; i++ {
		d.NextBlock(0)
	}
	d.EmulateAhead()
	d.Settle()
	if n := calls.Load(); n != 7 {
		t.Fatalf("%d blocks emulated, want 7: the fill, then blocks 4-6", n)
	}
	for i := 4; i < 6; i++ {
		if bt, ok := d.NextBlock(0); !ok || bt.BlockID != i {
			t.Fatalf("block %d: got %v, %v", i, bt, ok)
		}
	}
	if _, ok := d.NextBlock(0); ok || !errors.Is(d.Err(), boom) {
		t.Fatalf("failing block handed out: %v, err %v", ok, d.Err())
	}
}

func TestDispatcherValidation(t *testing.T) {
	if _, err := NewDispatcher(0, &fakeEmulator{}); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, err := NewDispatcher(1, nil); err == nil {
		t.Error("nil emulator accepted")
	}
}

func newService(t *testing.T, q *clock.Queue) (*FaultService, *vm.AddressSpace, *interconnect.Link) {
	t.Helper()
	as, err := vm.NewAddressSpace(4096, 64<<20, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.AddRegion(vm.Region{Name: "in", Base: 0, Size: 1 << 20, Kind: vm.RegionCPUInit}); err != nil {
		t.Fatal(err)
	}
	link, err := interconnect.New("nvlink", q, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	svc, err := NewFaultService(q, link, as, 64*1024, config.NVLinkConfig().FaultCosts, cfg.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	return svc, as, link
}

func TestFaultServiceMigration(t *testing.T) {
	q := clock.New()
	svc, as, link := newService(t, q)
	var doneAt int64 = -1
	svc.Service(0x10000, vm.FaultMigrate, 0, on(func() { doneAt = q.Now() }))
	drain(q)
	// NVLink migration: 12 us = 12000 cycles end to end.
	if doneAt != 12000 {
		t.Errorf("migration completed at %d, want 12000", doneAt)
	}
	// All 16 pages of the region are now GPU resident.
	for p := uint64(0x10000); p < 0x20000; p += 4096 {
		if as.Classify(p) != vm.FaultNone {
			t.Errorf("page %#x not resident", p)
		}
	}
	st := svc.Stats()
	if st.Served != 1 || st.Migrations != 1 || st.PagesMapped != 16 {
		t.Errorf("stats = %+v", st)
	}
	if link.Stats().Transfers != 1 {
		t.Error("migration must occupy the interconnect")
	}
}

func TestFaultServiceSerializesOneByOne(t *testing.T) {
	q := clock.New()
	svc, _, _ := newService(t, q)
	var times []int64
	for i := 0; i < 3; i++ {
		svc.Service(uint64(i)<<16, vm.FaultMigrate, 0, on(func() { times = append(times, q.Now()) }))
	}
	drain(q)
	want := []int64{12000, 24000, 36000}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("fault %d resolved at %d, want %d (one-by-one handling)", i, times[i], want[i])
		}
	}
	if svc.Stats().QueueCycles != 12000+24000 {
		t.Errorf("queue cycles = %d, want 36000", svc.Stats().QueueCycles)
	}
}

func TestFaultServiceAllocOnlyCheaper(t *testing.T) {
	q := clock.New()
	svc, as, _ := newService(t, q)
	if err := as.AddRegion(vm.Region{Name: "out", Base: 1 << 20, Size: 1 << 20, Kind: vm.RegionLazy}); err != nil {
		t.Fatal(err)
	}
	var doneAt int64
	svc.Service(1<<20, vm.FaultAllocOnly, 0, on(func() { doneAt = q.Now() }))
	drain(q)
	// NVLink alloc-only: 10 us.
	if doneAt != 10000 {
		t.Errorf("alloc-only completed at %d, want 10000", doneAt)
	}
	if svc.Stats().AllocOnly != 1 {
		t.Errorf("stats = %+v", svc.Stats())
	}
}

func TestFaultServiceSkipsUnregisteredPages(t *testing.T) {
	q := clock.New()
	svc, as, _ := newService(t, q)
	// Region covering only half a 64 KB handling window.
	if err := as.AddRegion(vm.Region{Name: "tail", Base: 1 << 20, Size: 32 * 1024, Kind: vm.RegionLazy}); err != nil {
		t.Fatal(err)
	}
	svc.Service(1<<20, vm.FaultAllocOnly, 0, on(func() {}))
	drain(q)
	if got := svc.Stats().PagesMapped; got != 8 {
		t.Errorf("pages mapped = %d, want 8 (half the window registered)", got)
	}
}

func TestFaultServiceValidation(t *testing.T) {
	q := clock.New()
	link, _ := interconnect.New("x", q, 1)
	cfg := config.Default()
	if _, err := NewFaultService(q, link, nil, 0, config.FaultCosts{}, cfg.Cycles); err == nil {
		t.Error("zero granularity accepted")
	}
	if _, err := NewFaultService(q, link, nil, 65536, config.FaultCosts{}, nil); err == nil {
		t.Error("nil cycle converter accepted")
	}
}
