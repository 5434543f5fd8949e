package asm

import (
	"slices"
	"strings"
	"testing"

	"gpues/internal/emu"
	"gpues/internal/isa"
	"gpues/internal/kernel"
	"gpues/internal/workloads"
)

const saxpySrc = `
.kernel saxpy
.shared 0
.param X 0x1000000
.param Y 0x2000000

    s2r     r0, tid.x
    s2r     r1, ctaid.x
    s2r     r2, ntid.x
    imad    r3, r1, r2, r0
    shl     r4, r3, #3
    ldc     r5, X
    iadd    r6, r5, r4
    ld.global.u64 r7, [r6]
    ldc     r5, Y
    iadd    r6, r5, r4
    ld.global.u64 r8, [r6+0]
    mov     r9, #4612811918334230528 // 2.5 as float64 bits
    ffma    r8, r9, r7, r8
    st.global.u64 [r6], r8
    exit
`

func TestAssembleSaxpy(t *testing.T) {
	k, err := Assemble(saxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "saxpy" {
		t.Errorf("name = %q", k.Name)
	}
	if len(k.Code) != 15 {
		t.Fatalf("instructions = %d, want 15", len(k.Code))
	}
	if len(k.Params) != 2 || k.Params[0] != 0x1000000 || k.Params[1] != 0x2000000 {
		t.Errorf("params = %v", k.Params)
	}
	ld := k.Code[7]
	if ld.Op != isa.OpLdGlobal || ld.Dst != 7 || ld.SrcA != 6 || ld.Size != 8 {
		t.Errorf("ld = %+v", ld)
	}
	// The assembled kernel actually runs.
	mem := emu.NewMemory()
	for i := 0; i < 64; i++ {
		mem.WriteF64(0x1000000+uint64(i*8), float64(i))
		mem.WriteF64(0x2000000+uint64(i*8), 1)
	}
	l := &kernel.Launch{Kernel: k, Grid: kernel.Dim3{X: 2}, Block: kernel.Dim3{X: 32}}
	e, err := emu.New(l, mem, 128)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		if _, err := e.EmulateBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		want := 2.5*float64(i) + 1
		if got := mem.ReadF64(0x2000000 + uint64(i*8)); got != want {
			t.Fatalf("y[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestAssembleBranchesAndPredication(t *testing.T) {
	src := `
.kernel diverge
    s2r r0, laneid
    isetp.lt r1, r0, rz, #16
    @r1 bra low, join
    mov r2, #2
    bra join
low:
    mov r2, #1
join:
    @!r1 nop
loop:
    iadd r3, r3, rz, #1
    isetp.lt r4, r3, rz, #4
    @r4 bra.uni loop
    exit
`
	k, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	br := k.Code[2]
	if br.Op != isa.OpBra || br.Pred != 1 || br.PredNeg {
		t.Errorf("predicated branch = %+v", br)
	}
	if br.Target != 5 || br.Reconv != 6 {
		t.Errorf("branch target/reconv = %d/%d, want 5/6", br.Target, br.Reconv)
	}
	uni := k.Code[9]
	if uni.Op != isa.OpBra || uni.Reconv != -1 || uni.Pred != 4 {
		t.Errorf("uniform branch = %+v", uni)
	}
	pnop := k.Code[6]
	if pnop.Op != isa.OpNop || !pnop.PredNeg || pnop.Pred != 1 {
		t.Errorf("negated predicate = %+v", pnop)
	}
	// The divergent kernel runs to completion.
	l := &kernel.Launch{Kernel: k, Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}}
	e, _ := emu.New(l, emu.NewMemory(), 128)
	if _, err := e.EmulateBlock(0); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleAtomics(t *testing.T) {
	src := `
.kernel atoms
    mov r0, #4096
    mov r1, #1
    atom.global.add.u64 r2, [r0], r1
    atom.global.cas.u64 r3, [r0+8], r1, r2
    exit
`
	k, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	add := k.Code[2]
	if add.Op != isa.OpAtomGlobal || add.Atom != isa.AtomAdd || add.Dst != 2 {
		t.Errorf("atom.add = %+v", add)
	}
	cas := k.Code[3]
	if cas.Atom != isa.AtomCAS || cas.SrcC != 2 || cas.Imm != 8 {
		t.Errorf("atom.cas = %+v", cas)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic":   "    frob r1, r2\n    exit",
		"unknown label":      "    bra nowhere\n    exit",
		"bad register":       "    mov rq, #1\n    exit",
		"bad directive":      ".bogus 3\n    exit",
		"missing reconv":     "    @r1 bra a, b\na:\nb:\n    exit",
		"duplicate label":    "a:\n    nop\na:\n    exit",
		"bad mem operand":    "    ld.global.u64 r1, r2\n    exit",
		"bad size":           "    ld.global.u16 r1, [r2]\n    exit",
		"bad param":          "    ldc r1, missing\n    exit",
		"no exit":            "    nop",
		"bad sreg":           "    s2r r1, tid.q\n    exit",
		"operand count":      "    imad r1, r2\n    exit",
		"atomic cas 3 ops":   "    atom.global.cas.u64 r1, [r2], r3\n    exit",
		"shared atomics":     "    atom.shared.add.u64 r1, [r2], r3\n    exit",
		"bad float imm":      "    fmov r1, #abc\n    exit",
		"bad regs directive": ".regs zero\n    exit",
		"empty global load":  "ld.global.u64 r0, []\nexit",
		"empty shared store": "    st.shared.u32 [], r1\n    exit",
		"bad kernel name":    ".kernel !\n    exit",
	}
	for name, src := range cases {
		if name == "missing reconv" {
			// This source is actually valid (two labels given); replace
			// with a truly missing reconvergence operand.
			src = "    @r1 bra a\na:\n    exit"
		}
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: assembled without error", name)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
; full-line comment
.kernel c   // trailing comment

    nop     ; mid comment
    exit
`
	k, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Code) != 2 {
		t.Errorf("instructions = %d, want 2", len(k.Code))
	}
}

// TestRoundTripWorkloads: disassembling every bundled workload kernel
// and reassembling it yields identical code.
func TestRoundTripWorkloads(t *testing.T) {
	for _, name := range workloads.Names("") {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.Build(name, workloads.Params{Scale: 1})
			if err != nil {
				t.Fatal(err)
			}
			k := spec.Launch.Kernel
			listing := Disassemble(k)
			k2, err := Assemble(listing)
			if err != nil {
				t.Fatalf("reassembly failed: %v\n%s", err, listing)
			}
			if len(k2.Code) != len(k.Code) {
				t.Fatalf("instruction count %d != %d", len(k2.Code), len(k.Code))
			}
			for pc := range k.Code {
				if k.Code[pc] != k2.Code[pc] {
					t.Fatalf("pc %d differs:\n  orig: %+v\n  trip: %+v\nlisting line: %s",
						pc, k.Code[pc], k2.Code[pc], k.Code[pc].String())
				}
			}
			if k2.SharedMemBytes != k.SharedMemBytes || k2.RegsPerThread != k.RegsPerThread {
				t.Errorf("metadata differs: shared %d/%d regs %d/%d",
					k2.SharedMemBytes, k.SharedMemBytes, k2.RegsPerThread, k.RegsPerThread)
			}
			if len(k2.Params) != len(k.Params) {
				t.Fatalf("params %d != %d", len(k2.Params), len(k.Params))
			}
			for i := range k.Params {
				if k.Params[i] != k2.Params[i] {
					t.Errorf("param %d: %#x != %#x", i, k2.Params[i], k.Params[i])
				}
			}
		})
	}
}

func TestDisassembleReadable(t *testing.T) {
	k := MustAssemble(saxpySrc)
	out := Disassemble(k)
	for _, want := range []string{".kernel saxpy", "s2r r0, tid.x", "ffma", "ld.global.u64", "exit"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
}

// FuzzAssemble: no listing panics the assembler, and an accepted one
// survives a disassemble/assemble round trip with its code, register
// count, shared bytes, parameters and name.
func FuzzAssemble(f *testing.F) {
	f.Add(saxpySrc)
	f.Add(".kernel atoms\n    mov r0, #4096\n    mov r1, #1\n    atom.global.add.u64 r2, [r0], r1\n" +
		"    atom.global.cas.u64 r3, [r0+8], r1, r2\n    exit\n")
	f.Add(".kernel diverge\n    s2r r0, laneid\n    isetp.lt r1, r0, rz, #16\n    @r1 bra low, join\n" +
		"    mov r2, #2\n    bra join\nlow:\n    mov r2, #1\njoin:\n    @!r1 nop\n    fmov r3, #1.5\n" +
		"    st.shared.u32 [r7-16], r3\n    bar.sync\n    exit\n")
	f.Fuzz(func(t *testing.T, src string) {
		k, err := Assemble(src)
		if err != nil {
			return
		}
		listing := Disassemble(k)
		k2, err := Assemble(listing)
		if err != nil {
			t.Fatalf("listing of an accepted kernel does not assemble: %v\n%s", err, listing)
		}
		if k2.Name != k.Name || k2.RegsPerThread != k.RegsPerThread || k2.SharedMemBytes != k.SharedMemBytes {
			t.Fatalf("name, regs, shared %q %d %d came back as %q %d %d",
				k.Name, k.RegsPerThread, k.SharedMemBytes, k2.Name, k2.RegsPerThread, k2.SharedMemBytes)
		}
		if !slices.Equal(k2.Params, k.Params) {
			t.Fatalf("params %#x came back as %#x", k.Params, k2.Params)
		}
		if !slices.Equal(k2.Code, k.Code) {
			for pc := range k.Code {
				if pc >= len(k2.Code) || k2.Code[pc] != k.Code[pc] {
					t.Fatalf("pc %d of %d differs after the round trip\nlisting:\n%s", pc, len(k.Code), listing)
				}
			}
			t.Fatalf("%d instructions came back as %d", len(k.Code), len(k2.Code))
		}
	})
}
