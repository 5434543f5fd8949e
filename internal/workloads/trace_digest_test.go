package workloads

import (
	"testing"

	"gpues/internal/ckpt"
	"gpues/internal/emu"
	"gpues/internal/isa"
)

// traceDigests pins the dynamic trace content of every registered
// workload at scale 1, seed 42: one FNV-1a digest per workload over
// each block's warps, instructions (PC, mask, coalesced lines) and
// exception records, in block-ID order. The timing model sees the
// workloads only through these traces, so a trace-layout change that
// keeps them keeps every simulated figure.
var traceDigests = map[string]uint64{
	"assert-demo":    0xd6cdc6ca7917317e,
	"oom-demo":       0x5593c775f96f0f97,
	"halloc-spree":   0x5ac526678323c2a5,
	"halloc-cycle":   0xffe587ed858c3825,
	"halloc-varsize": 0x74dc4e602780e2b1,
	"halloc-churn":   0x0c78e962823611a5,
	"quadtree":       0xe70c7d6637181c44,
	"cutcp":          0x5c792f1118a27b87,
	"mri-q":          0x16ace022357ad025,
	"tpacf":          0xf741829b78b27c8f,
	"mri-gridding":   0x71bd4dcb34658075,
	"sgemm":          0xc22b6fa2b2ef4f7d,
	"stencil":        0xbe366fd4d9ee1564,
	"lbm":            0x52e1bebae5d51745,
	"sad":            0x19765a19381d71d1,
	"spmv":           0x0266d28e18c0e866,
	"bfs":            0xc4cbc820e4570b6f,
	"histo":          0x348af9db33527dca,
}

// hashTrace folds one block's trace into h; code is the kernel it ran.
// It hashes each instruction as the trace expands to, so the digests
// do not depend on how the trace encodes them.
func hashTrace(h *ckpt.Hasher, bt *emu.BlockTrace, code []isa.Instruction) {
	h.U64(uint64(bt.BlockID))
	h.U64(uint64(len(bt.Warps)))
	for i := range bt.Warps {
		w := &bt.Warps[i]
		h.U64(uint64(w.WarpID))
		h.U64(uint64(w.Len))
		var lines []uint64
		for it := w.Iter(code); it.Next(); {
			h.U64(uint64(uint32(it.PC())))
			h.U64(uint64(it.Mask()))
			lines = it.Lines(lines[:0])
			h.U64(uint64(len(lines)))
			for _, l := range lines {
				h.U64(l)
			}
		}
		if x := w.Excep; x != nil {
			h.U64(1)
			h.U64(uint64(x.Kind))
			h.U64(uint64(uint32(x.PC)))
			h.U64(uint64(uint32(x.Lane)))
		} else {
			h.U64(0)
		}
	}
}

// TestTraceDigest emulates every workload block by block and checks the
// trace digest against the pinned table, once keeping every trace and
// once handing each back to the emulator as soon as it is hashed: a
// recycled trace must carry no instruction or line of the block before.
func TestTraceDigest(t *testing.T) {
	for _, w := range All() {
		for _, recycle := range []bool{false, true} {
			spec, err := w.Build(Params{Scale: 1, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			e, err := emu.New(spec.Launch, spec.Memory, 128)
			if err != nil {
				t.Fatal(err)
			}
			h := ckpt.NewHasher()
			for b := 0; b < spec.Launch.Blocks(); b++ {
				bt, err := e.EmulateBlock(b)
				if err != nil {
					t.Fatalf("%s block %d: %v", w.Name, b, err)
				}
				hashTrace(h, bt, spec.Launch.Kernel.Code)
				if recycle {
					e.Release(bt)
				}
			}
			if want := traceDigests[w.Name]; h.Sum() != want {
				t.Errorf("%s (recycle %v): trace digest %#016x, want %#016x", w.Name, recycle, h.Sum(), want)
			}
		}
	}
}

// TestTraceFootprint emulates every workload at scale 1, seed 42, and
// bounds its trace bytes (BlockTrace.Bytes) per dynamic instruction, so
// a change to the trace layout that grows it fails here rather than
// only in the simulator's memory use. Each bound is the measured
// figure plus about a tenth.
func TestTraceFootprint(t *testing.T) {
	bounds := map[string]float64{
		"assert-demo":    5.0,
		"oom-demo":       2.9,
		"halloc-spree":   29.9,
		"halloc-cycle":   71.6,
		"halloc-varsize": 17.4,
		"halloc-churn":   39.9,
		"quadtree":       6.3,
		"cutcp":          4.1,
		"mri-q":          2.4,
		"tpacf":          5.2,
		"mri-gridding":   4.2,
		"sgemm":          1.12,
		"stencil":        4.7,
		"lbm":            1.9,
		"sad":            2.8,
		"spmv":           7.3,
		"bfs":            11.0,
		"histo":          9.2,
	}
	for _, w := range All() {
		spec, err := w.Build(Params{Scale: 1, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		e, err := emu.New(spec.Launch, spec.Memory, 128)
		if err != nil {
			t.Fatal(err)
		}
		bytes, insts := 0, 0
		for b := 0; b < spec.Launch.Blocks(); b++ {
			bt, err := e.EmulateBlock(b)
			if err != nil {
				t.Fatalf("%s block %d: %v", w.Name, b, err)
			}
			bytes += bt.Bytes()
			insts += bt.DynInsts
			e.Release(bt)
		}
		per := float64(bytes) / float64(insts)
		t.Logf("%s: %.2f B per instruction, %d B per block", w.Name, per, bytes/spec.Launch.Blocks())
		bound, ok := bounds[w.Name]
		if !ok {
			t.Errorf("%s: no footprint bound", w.Name)
			continue
		}
		if per > bound {
			t.Errorf("%s: trace takes %.2f B per instruction, bound %.2f", w.Name, per, bound)
		}
	}
}
