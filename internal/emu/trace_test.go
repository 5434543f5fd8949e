package emu_test

import (
	"reflect"
	"testing"
	"unsafe"

	"gpues/internal/emu"
	"gpues/internal/workloads"
)

// TestRunLayout pins a trace run at 12 bytes with no pointers, so
// trace arrays are noscan memory the collector never walks and a copy
// into them needs no write barriers.
func TestRunLayout(t *testing.T) {
	if got := unsafe.Sizeof(emu.Run{}); got != emu.RunBytes {
		t.Errorf("Run is %d bytes, want %d", got, emu.RunBytes)
	}
	if path, ok := pointerIn(reflect.TypeOf(emu.Run{}), "Run"); ok {
		t.Errorf("Run holds a pointer at %s", path)
	}
}

// TestLineEncoding: a line is stored in 4 bytes as a signed offset
// from the warp's first line, so lines on either side of it, up to
// 2^31 away, expand back exactly, and one further cannot be stored.
func TestLineEncoding(t *testing.T) {
	if got := unsafe.Sizeof(emu.WarpTrace{}.Lines[0]); got != emu.LineBytes {
		t.Errorf("a stored line is %d bytes, want %d", got, emu.LineBytes)
	}
	const first = 1 << 40
	lines := []uint64{first, first - 1<<31, first + 1<<31 - 1, first + 8}
	var bt emu.BlockTrace
	bt.Append(0, 0, 1, lines...)
	wt := &bt.Warps[0]
	var p emu.Pos
	if got := wt.LinesAt(nil, p); !reflect.DeepEqual(got, lines) {
		t.Errorf("LinesAt = %#x, want %#x", got, lines)
	}
	for i, want := range lines {
		if got := wt.LineAt(p, i); got != want {
			t.Errorf("LineAt(%d) = %#x, want %#x", i, got, want)
		}
	}
	for _, far := range []uint64{first + 1<<31, first - 1<<31 - 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append stored line %#x, %d from the warp's first", far, int64(far-first))
				}
			}()
			bt.Append(0, 1, 1, far)
		}()
	}
}

// pointerIn returns the path of a pointer-shaped part of t, if any.
func pointerIn(t reflect.Type, path string) (string, bool) {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p, ok := pointerIn(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
		return "", false
	case reflect.Array:
		return pointerIn(t.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return path, true
	}
	return "", false
}

// TestEmulateReleaseAllocs: once every block of a launch has been
// emulated and handed back, emulating a block and handing its trace
// back allocates nothing. The launch (histo) runs shared memory and
// global atomics.
func TestEmulateReleaseAllocs(t *testing.T) {
	spec, err := workloads.Build("histo", workloads.Params{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := emu.New(spec.Launch, spec.Memory, 128)
	if err != nil {
		t.Fatal(err)
	}
	n := spec.Launch.Blocks()
	blk := 0
	step := func() {
		bt, err := e.EmulateBlock(blk % n)
		if err != nil {
			t.Fatal(err)
		}
		e.Release(bt)
		blk++
	}
	for blk < n {
		step()
	}
	if allocs := testing.AllocsPerRun(n, step); allocs != 0 {
		t.Errorf("warm emulate and hand-back: %.2f allocations per block, want 0", allocs)
	}
}
