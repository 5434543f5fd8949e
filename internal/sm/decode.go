package sm

import (
	"gpues/internal/config"
	"gpues/internal/isa"
)

// decoded is what the pipeline needs of one static instruction.
// PrepareLaunch builds one per instruction of the launch's kernel, so
// fetch, issue, operand read, commit and the memory pipeline read a
// small table entry instead of decoding the instruction again. A trace
// entry's PC indexes the table.
type decoded struct {
	unit    isa.Unit
	global  bool // a global memory access: runs through startMem, has a line count in the trace
	control bool // control flow: fetch stops until it commits
	barrier bool // bar.sync: operand read parks the warp
	write   bool // a global write access (store or atomic)
	// logNeed is the operand log entries a global access holds:
	// loads one, stores and atomics two (address and data).
	logNeed int8
	nsrc    int8
	// dst is the scoreboarded destination, RegNone when the
	// instruction writes none (RZ is not scoreboarded).
	dst isa.Reg
	// srcs[:nsrc] are the scoreboarded sources, in operand order.
	srcs [4]isa.Reg
	// latency is the cycles from operand read to commit of an
	// instruction that is neither a barrier nor a global access.
	latency int32
}

// writes reports whether the instruction holds a destination.
func (d *decoded) writes() bool { return d.dst != isa.RegNone }

// sources returns the scoreboarded source registers.
func (d *decoded) sources() []isa.Reg { return d.srcs[:d.nsrc] }

// decodeKernel builds the decode table of code under the SM timing
// parameters c.
func decodeKernel(code []isa.Instruction, c *config.SMConfig) []decoded {
	tab := make([]decoded, len(code))
	for i := range code {
		in := &code[i]
		d := &tab[i]
		d.unit = in.ExecUnit()
		d.global = in.IsGlobalMem()
		d.control = in.IsControl()
		d.barrier = in.Op == isa.OpBar
		d.write = in.Op == isa.OpStGlobal || in.Op == isa.OpAtomGlobal
		d.logNeed = 1
		if d.write {
			d.logNeed = 2
		}
		d.dst = isa.RegNone
		if in.Writes() {
			d.dst = in.Dst
		}
		for _, r := range [...]isa.Reg{in.SrcA, in.SrcB, in.SrcC, in.Pred} {
			if r != isa.RegNone && r != isa.RZ {
				d.srcs[d.nsrc] = r
				d.nsrc++
			}
		}
		switch {
		case in.Op == isa.OpExit:
			d.latency = 1
		case in.Op == isa.OpBra:
			d.latency = int32(c.BranchLatency)
		case in.Op == isa.OpLdShared || in.Op == isa.OpStShared:
			d.latency = int32(c.SharedLatency)
		case d.unit == isa.UnitSpecial:
			d.latency = int32(c.SpecialLatency)
		default:
			d.latency = int32(c.MathLatency)
		}
	}
	return tab
}
