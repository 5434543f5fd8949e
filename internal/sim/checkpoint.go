// Checkpoints and trail audits for the full simulator. The clock queue
// stores scheduled closures, which cannot be serialized; a checkpoint
// instead records the cycle plus one digest of every component's
// serialized state (architectural state and a structural summary of its
// closure-bound state). A run with CheckpointEvery leaves a trail of them.
// Audit re-executes a fresh simulator through the trail's cycles —
// deterministic execution makes the re-execution bit-identical — and
// checks every component's digest at each: any nondeterminism between the
// writing run and the audit surfaces as a DivergenceError naming the
// component and the first checkpoint cycle that sees it.
package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"gpues/internal/ckpt"
	"gpues/internal/config"
)

// namedSaver pairs a checkpoint section name with its component.
type namedSaver struct {
	name  string
	saver ckpt.Saver
}

// saverList enumerates every stateful component in a fixed order. The
// names are the checkpoint section names; they are stable across runs
// of the same configuration, so two runs' checkpoints can be compared
// section by section.
func (s *Simulator) saverList() []namedSaver {
	list := []namedSaver{
		{"clock", s.q},
		{"host.dispatcher", s.disp},
		{"host.faultservice", s.cpu},
		{"host.excep", s.board},
		{"core.faultunit", s.funit},
		{"vm", s.as},
		{"emu.memory", s.spec.Memory},
		{"dram", s.mem},
		{"link", s.link},
		{"cache.l2", s.l2},
		{"tlb.l2", s.l2tlb},
		{"tlb.fillunit", s.fu},
		{"obs.metrics", s.reg},
	}
	if s.local != nil {
		list = append(list, namedSaver{"core.localhandler", s.local})
	}
	if s.chaos != nil {
		list = append(list, namedSaver{"chaos", s.chaos})
	}
	for i, m := range s.sms {
		list = append(list, namedSaver{fmt.Sprintf("sm.%d", i), m})
		list = append(list, namedSaver{fmt.Sprintf("cache.l1.%d", i), s.l1s[i]})
		list = append(list, namedSaver{fmt.Sprintf("tlb.l1.%d", i), s.l1tlbs[i]})
	}
	list = append(list, namedSaver{"sim.core", (*simCore)(s)})
	return list
}

// simCore is the simulator's own loop state as a checkpoint component:
// the runnable-SM bitset. The remaining loop fields (watchdog, sweep
// schedule, checkpoint schedule) intentionally stay out — they mutate
// after the loop-top point a checkpoint captures, and they influence
// only abort conditions, never simulated state.
type simCore Simulator

// SaveState serializes the active-SM bitset.
func (c *simCore) SaveState(w *ckpt.Writer) {
	w.Int(len(c.active))
	for _, word := range c.active {
		w.U64(word)
	}
}

// FingerprintConfig returns the checkpoint config fingerprint of cfg —
// the value stamped into every checkpoint and used as half of the
// result-cache key. The sampling period is excluded: it never changes
// simulation results, so runs differing only in it are interchangeable.
func FingerprintConfig(cfg config.Config) uint64 {
	cfg.SampleEvery = 0
	return ckpt.Digest([]byte(fmt.Sprintf("%#v", cfg)))
}

// FingerprintSpec hashes a launch spec: kernel identity and shape, the
// registered regions, and the current functional memory image. New
// calls it before any simulation runs, so the memory digest covers the
// initial image; callers fingerprinting for the result cache must do
// the same (runs mutate the functional memory).
func FingerprintSpec(spec LaunchSpec) uint64 {
	h := ckpt.NewHasher()
	h.Bytes([]byte(spec.Launch.Kernel.Name))
	h.U64(uint64(len(spec.Launch.Kernel.Code)))
	h.U64(uint64(spec.Launch.Blocks()))
	h.U64(uint64(spec.Launch.ThreadsPerBlock()))
	for _, r := range spec.Regions {
		h.Bytes([]byte(r.Name))
		h.U64(r.Base)
		h.U64(r.Size)
		h.U64(uint64(r.Kind))
	}
	w := ckpt.NewWriter()
	spec.Memory.SaveState(w)
	h.Bytes(w.Data())
	return h.Sum()
}

// RunKey names a simulation by its config and launch-spec fingerprints:
// the simulation service's result-cache key and the experiment
// campaigns' done-record key. Like FingerprintSpec, it must see the
// spec before any run mutates its memory.
func RunKey(cfg config.Config, spec LaunchSpec) string {
	return fmt.Sprintf("cfg%016x-spec%016x", FingerprintConfig(cfg), FingerprintSpec(spec))
}

// Capture digests the complete current state into a checkpoint.
// Valid only at a cycle boundary (the main loop's top); callers inside
// the loop are maybeWriteCheckpoint and stallError, callers outside
// must go through StepTo.
func (s *Simulator) Capture() *ckpt.Checkpoint {
	ck := &ckpt.Checkpoint{
		Version:  ckpt.Version,
		Cycle:    s.q.Now(),
		ConfigFP: s.cfgFP,
		SpecFP:   s.specFP,
	}
	w := ckpt.NewWriter()
	for _, ns := range s.saverList() {
		w.Reset()
		ns.saver.SaveState(w)
		w.U64(s.nonces[ns.name])
		ck.Sections = append(ck.Sections, ckpt.SectionDigest{Name: ns.name, Digest: ckpt.Digest(w.Data())})
	}
	return ck
}

// ComponentDigests returns the per-component state digests at the
// current cycle boundary — the bisection probe primitive.
func (s *Simulator) ComponentDigests() []ckpt.SectionDigest {
	return s.Capture().Sections
}

// writeCheckpoint captures the current state and writes it into
// CheckpointDir (created if missing) under name. The write is atomic,
// so a kill mid-write never leaves a partial file.
func (s *Simulator) writeCheckpoint(name string) (string, error) {
	if err := os.MkdirAll(s.CheckpointDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(s.CheckpointDir, name)
	return path, s.Capture().WriteFile(path)
}

// maybeWriteCheckpoint writes the periodic checkpoint when one is due.
func (s *Simulator) maybeWriteCheckpoint(now int64) error {
	if s.CheckpointEvery <= 0 || s.CheckpointDir == "" || now < s.nextCkpt {
		return nil
	}
	for s.nextCkpt <= now {
		s.nextCkpt += s.CheckpointEvery
	}
	_, err := s.writeCheckpoint(ckpt.FileName(now))
	return err
}

// DivergenceError reports that a component's re-executed state digest
// does not match its checkpoint section — either real nondeterminism
// between the run that wrote the trail and the auditing one, or a
// configuration drift the fingerprints could not catch.
type DivergenceError struct {
	Component string
	Cycle     int64
}

// Error renders the divergence.
func (e *DivergenceError) Error() string {
	return fmt.Sprintf("sim: state of %q diverged from checkpoint at cycle %d", e.Component, e.Cycle)
}

// Audit checks a digest trail, in ascending cycle order as
// ckpt.ReadTrail returns it, against this run: it steps a fresh
// simulator to each checkpoint's cycle in turn and compares every
// component's state digest with the checkpoint's section there,
// failing at the first mismatch with a DivergenceError.
// Nothing is read back into the simulator; the re-execution is the
// state, and the audit proves it matches. The simulator must be
// configured exactly as the writing run was (same config, spec, chaos
// plan, tracer) and must not have run yet; call Run afterwards to
// finish the launch.
func (s *Simulator) Audit(trail ...*ckpt.Checkpoint) error {
	if s.started {
		return fmt.Errorf("sim: audit must precede Run")
	}
	if len(trail) == 0 {
		return fmt.Errorf("sim: empty checkpoint trail")
	}
	for _, ck := range trail {
		if ck.ConfigFP != s.cfgFP {
			return fmt.Errorf("sim: checkpoint config fingerprint %#016x does not match simulator %#016x",
				ck.ConfigFP, s.cfgFP)
		}
		if ck.SpecFP != s.specFP {
			return fmt.Errorf("sim: checkpoint spec fingerprint %#016x does not match simulator %#016x",
				ck.SpecFP, s.specFP)
		}
	}
	if err := s.Start(); err != nil {
		return err
	}
	for _, ck := range trail {
		reached, err := s.StepTo(ck.Cycle)
		if err != nil {
			return err
		}
		if !reached {
			return fmt.Errorf("sim: run finished at cycle %d before reaching checkpoint cycle %d",
				s.q.Now(), ck.Cycle)
		}
		if got := s.q.Now(); got != ck.Cycle {
			return fmt.Errorf("sim: run stopped at cycle %d, checkpoint is at %d", got, ck.Cycle)
		}
		if err := s.auditAt(ck); err != nil {
			return err
		}
	}
	return nil
}

// auditAt compares the current state digests with one checkpoint.
func (s *Simulator) auditAt(ck *ckpt.Checkpoint) error {
	fresh := s.Capture()
	if len(fresh.Sections) != len(ck.Sections) {
		return fmt.Errorf("sim: simulator has %d components, checkpoint has %d (chaos/local wiring must match)",
			len(fresh.Sections), len(ck.Sections))
	}
	want := make(map[string]uint64, len(ck.Sections))
	for _, sec := range ck.Sections {
		want[sec.Name] = sec.Digest
	}
	for _, sec := range fresh.Sections {
		d, ok := want[sec.Name]
		if !ok {
			return fmt.Errorf("sim: checkpoint has no section %q", sec.Name)
		}
		if d != sec.Digest {
			return &DivergenceError{Component: sec.Name, Cycle: ck.Cycle}
		}
	}
	return nil
}

// InjectDivergence registers an artificial single-component state
// perturbation at the given cycle: the component's divergence nonce is
// bumped when the main loop reaches that cycle. The nonce rides in the
// component's checkpoint section, so digests (and bisection) see a
// divergence from exactly that cycle on, while timing and results are
// untouched — the mechanism that lets bisection be tested end to end.
func (s *Simulator) InjectDivergence(cycle int64, component string) error {
	if cycle < 0 {
		return fmt.Errorf("sim: divergence cycle %d out of range", cycle)
	}
	for _, ns := range s.saverList() {
		if ns.name == component {
			if s.perturbs == nil {
				s.perturbs = make(map[int64][]string)
			}
			s.perturbs[cycle] = append(s.perturbs[cycle], component)
			return nil
		}
	}
	return fmt.Errorf("sim: unknown component %q (see docs/checkpointing.md for section names)", component)
}

// applyPerturbs applies (once) every registered divergence at or below
// the current cycle. Applied entries are deleted, so re-entering the
// loop top at the same cycle cannot double-apply.
func (s *Simulator) applyPerturbs(now int64) {
	if len(s.perturbs) == 0 {
		return
	}
	due := make([]int64, 0, len(s.perturbs))
	for c := range s.perturbs {
		if c <= now {
			due = append(due, c)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, c := range due {
		for _, comp := range s.perturbs[c] {
			s.nonces[comp]++
		}
		delete(s.perturbs, c)
	}
}
