// Package asm provides a textual assembly format for the simulator's
// ISA: a disassembler that renders a kernel as a .s listing and an
// assembler that parses the listing back. The two round-trip, so
// kernels can be dumped, edited by hand and re-run.
//
// Format (one instruction per line, ';' or '//' start comments):
//
//	.kernel saxpy
//	.regs 16            // occupancy cost per thread, 32-bit units
//	.shared 2048        // static shared memory per block, bytes
//	.param X 0x1000000  // launch parameter (name, value)
//
//	    s2r     r0, tid.x
//	    ldc     r1, param[0]
//	    mov     r2, #42
//	    fmov    r3, #1.5
//	    iadd    r4, r1, r0, 8
//	    isetp.lt r5, r4, rz, 100
//	loop:
//	    ld.global.u64  r6, [r4+0]
//	    st.shared.u32  [r7+16], r6
//	    atom.global.add.u64 r8, [r9], r6
//	    @r5 bra loop, join
//	    @!r5 bra.uni done
//	join:
//	    bar.sync
//	done:
//	    exit
//
// Predicated branches name their reconvergence label after a comma;
// bra.uni asserts warp uniformity (no reconvergence point needed).
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"gpues/internal/isa"
	"gpues/internal/kernel"
)

// Assemble parses a listing into a kernel.
func Assemble(src string) (*kernel.Kernel, error) {
	p := &parser{
		labels: map[string]int32{},
		params: map[string]int{},
	}
	lines := strings.Split(src, "\n")

	// Pass 1: directives and label positions.
	pc := int32(0)
	for ln, raw := range lines {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "."):
			if err := p.directive(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", ln+1, err)
			}
		case strings.HasSuffix(line, ":"):
			name := strings.TrimSuffix(line, ":")
			if !validLabel(name) {
				return nil, fmt.Errorf("line %d: bad label %q", ln+1, name)
			}
			if _, dup := p.labels[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate label %q", ln+1, name)
			}
			p.labels[name] = pc
		default:
			pc++
		}
	}

	// Pass 2: instructions.
	for ln, raw := range lines {
		line := stripComment(raw)
		if line == "" || strings.HasPrefix(line, ".") || strings.HasSuffix(line, ":") {
			continue
		}
		in, err := p.instruction(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		p.code = append(p.code, in)
	}

	if p.name == "" {
		p.name = "kernel"
	}
	k := &kernel.Kernel{
		Name:           p.name,
		Code:           p.code,
		RegsPerThread:  p.regs,
		SharedMemBytes: p.shared,
		Params:         p.paramVals,
	}
	if k.RegsPerThread == 0 {
		k.RegsPerThread = 2 * (maxReg(p.code) + 1)
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return k, nil
}

// MustAssemble panics on error, for static listings in tests.
func MustAssemble(src string) *kernel.Kernel {
	k, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return k
}

type parser struct {
	name      string
	regs      int
	shared    int
	params    map[string]int
	paramVals []uint64
	labels    map[string]int32
	code      []isa.Instruction
}

func stripComment(line string) string {
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validName reports whether s is a kernel name Disassemble writes
// unchanged.
func validName(s string) bool { return sanitizeName(s) == s }

func (p *parser) directive(line string) error {
	f := strings.Fields(line)
	switch f[0] {
	case ".kernel":
		if len(f) != 2 || !validName(f[1]) {
			return fmt.Errorf(".kernel wants a name of letters, digits, '_' and '-'")
		}
		p.name = f[1]
	case ".regs":
		if len(f) != 2 {
			return fmt.Errorf(".regs wants a count")
		}
		n, err := strconv.Atoi(f[1])
		if err != nil || n <= 0 {
			return fmt.Errorf("bad .regs %q", f[1])
		}
		p.regs = n
	case ".shared":
		if len(f) != 2 {
			return fmt.Errorf(".shared wants a byte count")
		}
		n, err := strconv.Atoi(f[1])
		if err != nil || n < 0 {
			return fmt.Errorf("bad .shared %q", f[1])
		}
		p.shared = n
	case ".param":
		if len(f) != 3 {
			return fmt.Errorf(".param wants a name and a value")
		}
		v, err := strconv.ParseUint(f[2], 0, 64)
		if err != nil {
			return fmt.Errorf("bad .param value %q", f[2])
		}
		p.params[f[1]] = len(p.paramVals)
		p.paramVals = append(p.paramVals, v)
	default:
		return fmt.Errorf("unknown directive %s", f[0])
	}
	return nil
}

// instruction parses one instruction line.
func (p *parser) instruction(line string) (isa.Instruction, error) {
	in := isa.NewInstruction(isa.OpNop)

	// Optional predicate prefix: @rN or @!rN.
	if strings.HasPrefix(line, "@") {
		rest := line[1:]
		if strings.HasPrefix(rest, "!") {
			in.PredNeg = true
			rest = rest[1:]
		}
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return in, fmt.Errorf("predicate without instruction")
		}
		r, err := parseReg(rest[:sp])
		if err != nil {
			return in, err
		}
		in.Pred = r
		line = strings.TrimSpace(rest[sp:])
	}

	sp := strings.IndexAny(line, " \t")
	mnem := line
	rest := ""
	if sp >= 0 {
		mnem = line[:sp]
		rest = strings.TrimSpace(line[sp:])
	}
	ops := splitOperands(rest)
	return p.decode(in, strings.ToLower(mnem), ops)
}

// splitOperands splits "r1, [r2+8], #3" into trimmed pieces.
func splitOperands(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

func parseReg(s string) (isa.Reg, error) {
	ls := strings.ToLower(s)
	if ls == "rz" {
		return isa.RZ, nil
	}
	if len(ls) < 2 || ls[0] != 'r' {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(ls[1:])
	if err != nil || n < 0 || n >= isa.MaxRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return isa.Reg(n), nil
}

func parseImm(s string) (int64, error) {
	s = strings.TrimPrefix(s, "#")
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		// Allow full-range unsigned immediates too.
		u, uerr := strconv.ParseUint(s, 0, 64)
		if uerr != nil {
			return 0, fmt.Errorf("bad immediate %q", s)
		}
		return int64(u), nil
	}
	return v, nil
}

// parseRegOrImm distinguishes "r4" from "#12".
func regOrImm(s string) (isa.Reg, int64, bool, error) {
	if strings.HasPrefix(s, "#") {
		v, err := parseImm(s)
		return isa.RegNone, v, false, err
	}
	r, err := parseReg(s)
	return r, 0, true, err
}

// parseMemOperand parses "[rA+imm]" or "[rA-imm]" or "[rA]".
func parseMemOperand(s string) (isa.Reg, int64, error) {
	if len(s) < 3 || s[0] != '[' || s[len(s)-1] != ']' {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	body := s[1 : len(s)-1]
	off := int64(0)
	regPart := body
	if i := strings.IndexAny(body[1:], "+-"); i >= 0 {
		i++ // relative to body
		regPart = body[:i]
		v, err := parseImm(body[i:])
		if err != nil {
			return 0, 0, err
		}
		off = v
	}
	r, err := parseReg(strings.TrimSpace(regPart))
	return r, off, err
}

func memSize(suffix string) (int, error) {
	switch suffix {
	case "u32", "32":
		return 4, nil
	case "u64", "64":
		return 8, nil
	}
	return 0, fmt.Errorf("bad memory size %q (want u32 or u64)", suffix)
}

var cmpNames = map[string]isa.Cmp{
	"eq": isa.CmpEQ, "ne": isa.CmpNE, "lt": isa.CmpLT,
	"le": isa.CmpLE, "gt": isa.CmpGT, "ge": isa.CmpGE,
}

var atomNames = map[string]isa.AtomOp{
	"add": isa.AtomAdd, "max": isa.AtomMax, "min": isa.AtomMin,
	"exch": isa.AtomExch, "cas": isa.AtomCAS, "and": isa.AtomAnd, "or": isa.AtomOr,
}

var sregNames = func() map[string]isa.SReg {
	m := map[string]isa.SReg{}
	for s := isa.SReg(0); s < isa.SRNumSReg; s++ {
		m[s.String()] = s
	}
	return m
}()

// alu3Ops maps simple three-operand mnemonics to opcodes.
var alu3Ops = map[string]isa.Op{
	"iadd": isa.OpIAdd, "isub": isa.OpISub, "imul": isa.OpIMul,
	"imin": isa.OpIMin, "imax": isa.OpIMax,
	"shl": isa.OpShl, "shr": isa.OpShr,
	"and": isa.OpAnd, "or": isa.OpOr, "xor": isa.OpXor,
	"fadd": isa.OpFAdd, "fsub": isa.OpFSub, "fmul": isa.OpFMul,
	"fmin": isa.OpFMin, "fmax": isa.OpFMax,
}

var unaryOps = map[string]isa.Op{
	"rcp": isa.OpFRcp, "sqrt": isa.OpFSqrt, "rsqrt": isa.OpFRsqrt,
	"ex2": isa.OpFExp, "lg2": isa.OpFLog, "sin": isa.OpFSin, "cos": isa.OpFCos,
	"i2f": isa.OpI2F, "f2i": isa.OpF2I,
}

func (p *parser) decode(in isa.Instruction, mnem string, ops []string) (isa.Instruction, error) {
	base := mnem
	var suffixes []string
	if i := strings.IndexByte(mnem, '.'); i >= 0 {
		base = mnem[:i]
		suffixes = strings.Split(mnem[i+1:], ".")
	}

	want := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%s wants %d operands, got %d", mnem, n, len(ops))
		}
		return nil
	}

	switch {
	case mnem == "nop":
		in.Op = isa.OpNop
		return in, want(0)

	case mnem == "exit":
		in.Op = isa.OpExit
		return in, want(0)

	case mnem == "bar.sync" || mnem == "bar":
		in.Op = isa.OpBar
		return in, want(0)

	case base == "bra":
		in.Op = isa.OpBra
		uniform := len(suffixes) == 1 && suffixes[0] == "uni"
		if uniform || in.Pred == isa.RegNone {
			if err := want(1); err != nil {
				return in, err
			}
			t, ok := p.labels[ops[0]]
			if !ok {
				return in, fmt.Errorf("unknown label %q", ops[0])
			}
			in.Target = t
			return in, nil
		}
		if err := want(2); err != nil {
			return in, fmt.Errorf("predicated bra wants target and reconvergence labels")
		}
		t, ok := p.labels[ops[0]]
		if !ok {
			return in, fmt.Errorf("unknown label %q", ops[0])
		}
		r, ok := p.labels[ops[1]]
		if !ok {
			return in, fmt.Errorf("unknown reconvergence label %q", ops[1])
		}
		in.Target, in.Reconv = t, r
		return in, nil

	case base == "mov" || base == "fmov":
		in.Op = isa.OpMov
		if err := want(2); err != nil {
			return in, err
		}
		d, err := parseReg(ops[0])
		if err != nil {
			return in, err
		}
		in.Dst = d
		if strings.HasPrefix(ops[1], "#") {
			if base == "fmov" {
				f, err := strconv.ParseFloat(strings.TrimPrefix(ops[1], "#"), 64)
				if err != nil {
					return in, fmt.Errorf("bad float immediate %q", ops[1])
				}
				in.Imm = int64(math.Float64bits(f))
			} else {
				v, err := parseImm(ops[1])
				if err != nil {
					return in, err
				}
				in.Imm = v
			}
			return in, nil
		}
		a, err := parseReg(ops[1])
		if err != nil {
			return in, err
		}
		in.SrcA = a
		return in, nil

	case base == "s2r":
		in.Op = isa.OpS2R
		if err := want(2); err != nil {
			return in, err
		}
		d, err := parseReg(ops[0])
		if err != nil {
			return in, err
		}
		sr, ok := sregNames[strings.ToLower(ops[1])]
		if !ok {
			return in, fmt.Errorf("unknown special register %q", ops[1])
		}
		in.Dst, in.Imm = d, int64(sr)
		return in, nil

	case base == "ldc":
		in.Op = isa.OpLdParam
		if err := want(2); err != nil {
			return in, err
		}
		d, err := parseReg(ops[0])
		if err != nil {
			return in, err
		}
		in.Dst = d
		arg := ops[1]
		if strings.HasPrefix(arg, "param[") && strings.HasSuffix(arg, "]") {
			n, err := strconv.Atoi(arg[6 : len(arg)-1])
			if err != nil {
				return in, fmt.Errorf("bad param index %q", arg)
			}
			in.Imm = int64(n)
			return in, nil
		}
		idx, ok := p.params[arg]
		if !ok {
			return in, fmt.Errorf("unknown param %q", arg)
		}
		in.Imm = int64(idx)
		return in, nil

	case base == "imad" || base == "ffma":
		if base == "imad" {
			in.Op = isa.OpIMad
		} else {
			in.Op = isa.OpFFma
		}
		if err := want(4); err != nil {
			return in, err
		}
		var err error
		if in.Dst, err = parseReg(ops[0]); err != nil {
			return in, err
		}
		if in.SrcA, err = parseReg(ops[1]); err != nil {
			return in, err
		}
		if in.SrcB, err = parseReg(ops[2]); err != nil {
			return in, err
		}
		if in.SrcC, err = parseReg(ops[3]); err != nil {
			return in, err
		}
		return in, nil

	case base == "isetp" || base == "fsetp":
		if len(suffixes) != 1 {
			return in, fmt.Errorf("%s wants a comparison suffix", base)
		}
		cmp, ok := cmpNames[suffixes[0]]
		if !ok {
			return in, fmt.Errorf("unknown comparison %q", suffixes[0])
		}
		if base == "isetp" {
			in.Op = isa.OpSetP
		} else {
			in.Op = isa.OpFSetP
		}
		in.Cmp = cmp
		if len(ops) != 3 && len(ops) != 4 {
			return in, fmt.Errorf("%s wants 3-4 operands", mnem)
		}
		var err error
		if in.Dst, err = parseReg(ops[0]); err != nil {
			return in, err
		}
		if in.SrcA, err = parseReg(ops[1]); err != nil {
			return in, err
		}
		if in.SrcB, err = parseReg(ops[2]); err != nil {
			return in, err
		}
		if len(ops) == 4 {
			if in.Imm, err = parseImm(ops[3]); err != nil {
				return in, err
			}
		}
		return in, nil

	case mnem == "assert":
		in.Op = isa.OpAssert
		if err := want(2); err != nil {
			return in, err
		}
		var err error
		if in.SrcA, err = parseReg(ops[0]); err != nil {
			return in, err
		}
		if in.Imm, err = parseImm(ops[1]); err != nil {
			return in, err
		}
		return in, nil

	case mnem == "trap":
		in.Op = isa.OpTrap
		if err := want(1); err != nil {
			return in, err
		}
		var err error
		if in.Imm, err = parseImm(ops[0]); err != nil {
			return in, err
		}
		return in, nil

	case mnem == "malloc":
		in.Op = isa.OpMalloc
		if err := want(2); err != nil {
			return in, err
		}
		var err error
		if in.Dst, err = parseReg(ops[0]); err != nil {
			return in, err
		}
		r, imm, isReg, err := regOrImm(ops[1])
		if err != nil {
			return in, err
		}
		if isReg {
			in.SrcA = r
		} else {
			// Immediate size: RZ marks "use the immediate", matching the
			// builder's normalization.
			in.SrcA = isa.RZ
			in.Imm = imm
		}
		return in, nil

	case base == "ld" || base == "st" || base == "atom":
		return p.decodeMem(in, base, suffixes, ops)

	default:
		if op, ok := unaryOps[base]; ok {
			in.Op = op
			if err := want(2); err != nil {
				return in, err
			}
			var err error
			if in.Dst, err = parseReg(ops[0]); err != nil {
				return in, err
			}
			if in.SrcA, err = parseReg(ops[1]); err != nil {
				return in, err
			}
			return in, nil
		}
		if op, ok := alu3Ops[base]; ok {
			in.Op = op
			if len(ops) != 3 && len(ops) != 4 {
				return in, fmt.Errorf("%s wants 3-4 operands", mnem)
			}
			var err error
			if in.Dst, err = parseReg(ops[0]); err != nil {
				return in, err
			}
			if in.SrcA, err = parseReg(ops[1]); err != nil {
				return in, err
			}
			r, imm, isReg, err := regOrImm(ops[2])
			if err != nil {
				return in, err
			}
			if isReg {
				in.SrcB = r
			} else {
				in.SrcB = isa.RZ
				in.Imm = imm
			}
			if len(ops) == 4 {
				if in.Imm, err = parseImm(ops[3]); err != nil {
					return in, err
				}
			}
			return in, nil
		}
	}
	return in, fmt.Errorf("unknown mnemonic %q", mnem)
}

func (p *parser) decodeMem(in isa.Instruction, base string, suffixes, ops []string) (isa.Instruction, error) {
	if len(suffixes) < 2 {
		return in, fmt.Errorf("%s wants .space.size suffixes", base)
	}
	space := suffixes[0]
	var err error
	switch base {
	case "ld":
		size, serr := memSize(suffixes[1])
		if serr != nil {
			return in, serr
		}
		in.Size = uint8(size)
		switch space {
		case "global":
			in.Op = isa.OpLdGlobal
		case "shared":
			in.Op = isa.OpLdShared
		default:
			return in, fmt.Errorf("unknown space %q", space)
		}
		if len(ops) != 2 {
			return in, fmt.Errorf("ld wants dst, [addr]")
		}
		if in.Dst, err = parseReg(ops[0]); err != nil {
			return in, err
		}
		if in.SrcA, in.Imm, err = parseMemOperand(ops[1]); err != nil {
			return in, err
		}
		return in, nil

	case "st":
		size, serr := memSize(suffixes[1])
		if serr != nil {
			return in, serr
		}
		in.Size = uint8(size)
		switch space {
		case "global":
			in.Op = isa.OpStGlobal
		case "shared":
			in.Op = isa.OpStShared
		default:
			return in, fmt.Errorf("unknown space %q", space)
		}
		if len(ops) != 2 {
			return in, fmt.Errorf("st wants [addr], src")
		}
		if in.SrcA, in.Imm, err = parseMemOperand(ops[0]); err != nil {
			return in, err
		}
		if in.SrcB, err = parseReg(ops[1]); err != nil {
			return in, err
		}
		return in, nil

	case "atom":
		if space != "global" {
			return in, fmt.Errorf("atomics are global only")
		}
		if len(suffixes) != 3 {
			return in, fmt.Errorf("atom wants .global.op.size")
		}
		aop, ok := atomNames[suffixes[1]]
		if !ok {
			return in, fmt.Errorf("unknown atomic op %q", suffixes[1])
		}
		size, serr := memSize(suffixes[2])
		if serr != nil {
			return in, serr
		}
		in.Op = isa.OpAtomGlobal
		in.Atom = aop
		in.Size = uint8(size)
		wantOps := 3
		if aop == isa.AtomCAS {
			wantOps = 4
		}
		if len(ops) != wantOps {
			return in, fmt.Errorf("atom.%s wants %d operands", suffixes[1], wantOps)
		}
		if in.Dst, err = parseReg(ops[0]); err != nil {
			return in, err
		}
		if in.SrcA, in.Imm, err = parseMemOperand(ops[1]); err != nil {
			return in, err
		}
		if in.SrcB, err = parseReg(ops[2]); err != nil {
			return in, err
		}
		if aop == isa.AtomCAS {
			if in.SrcC, err = parseReg(ops[3]); err != nil {
				return in, err
			}
		}
		return in, nil
	}
	return in, fmt.Errorf("unknown memory mnemonic %q", base)
}

func maxReg(code []isa.Instruction) int {
	max := 0
	for i := range code {
		for _, r := range [...]isa.Reg{code[i].Dst, code[i].SrcA, code[i].SrcB, code[i].SrcC, code[i].Pred} {
			if r != isa.RegNone && r != isa.RZ && int(r) > max {
				max = int(r)
			}
		}
	}
	return max
}
