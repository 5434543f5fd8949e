// Differential tests for the telemetry subsystem: sampling right after
// the tick phase must leave sim-cycles and per-component digests
// bit-identical across sampling periods and tracing, and two runs with
// the same sampling period must export byte-identical series.
package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"gpues/internal/excep"
	"gpues/internal/obs"
	"gpues/internal/sim"
)

// runTelemetry runs the case under the given knobs and returns the
// result, the end-of-run digests, and the exported series bytes.
func runTelemetry(t *testing.T, sampleEvery int64, traced bool) (*sim.Result, []byte, []byte) {
	t.Helper()
	pc := pagingCase()
	cfg := caseConfig(pc, excep.ModePrecise)
	cfg.SampleEvery = sampleEvery
	s, err := sim.New(cfg, buildSpec(t, pc))
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		s.AttachTracer(obs.New(obs.Options{}))
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var series bytes.Buffer
	if err := r.Series.WriteNDJSON(&series); err != nil {
		t.Fatal(err)
	}
	var digests bytes.Buffer
	fmt.Fprintf(&digests, "%v", s.ComponentDigests())
	return r, digests.Bytes(), series.Bytes()
}

func TestTelemetryDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is long")
	}
	// Reference: unsampled, untraced.
	refR, refD, _ := runTelemetry(t, 0, false)
	// Series reference per sampling period, from an untraced run.
	seriesRef := map[int64][]byte{}
	for _, every := range []int64{1000, 64 * 1024} {
		_, _, sb := runTelemetry(t, every, false)
		seriesRef[every] = sb
	}

	for _, every := range []int64{0, 1000, 64 * 1024} {
		for _, traced := range []bool{false, true} {
			name := fmt.Sprintf("every%d-traced%v", every, traced)
			t.Run(name, func(t *testing.T) {
				r, d, sb := runTelemetry(t, every, traced)
				if r.Cycles != refR.Cycles {
					t.Errorf("cycles = %d, reference %d", r.Cycles, refR.Cycles)
				}
				if r.Committed != refR.Committed {
					t.Errorf("committed = %d, reference %d", r.Committed, refR.Committed)
				}
				if !bytes.Equal(d, refD) {
					t.Errorf("component digests diverge from the unsampled reference")
				}
				if every == 0 {
					if r.Series.N != 0 {
						t.Errorf("unsampled run has %d samples", r.Series.N)
					}
					return
				}
				if !bytes.Equal(sb, seriesRef[every]) {
					t.Errorf("series bytes diverge from the untraced reference (%d vs %d bytes)",
						len(sb), len(seriesRef[every]))
				}
			})
		}
	}
}

func TestSampledSeriesMatchesResult(t *testing.T) {
	r, _, _ := runTelemetry(t, 1000, false)
	if r.Series.N < 2 {
		t.Fatalf("sampled run produced %d samples", r.Series.N)
	}
	tab := r.Series.Table()
	last := tab.Len() - 1
	if got := tab.Cycles[last]; got != r.Cycles {
		t.Errorf("final sample at cycle %d, run finished at %d", got, r.Cycles)
	}
	if got := tab.Col(obs.ColCommitted)[last]; got != r.Committed {
		t.Errorf("final sampled committed = %d, result has %d", got, r.Committed)
	}
	if got := tab.Col(obs.ColFaultsRaised)[last]; got != r.FaultUnit.Raised {
		t.Errorf("final sampled faults = %d, result has %d", got, r.FaultUnit.Raised)
	}
	// The demand-paging run must expose its fault phase to the analyzer.
	st := obs.Summarize(tab)
	if st.TotalFaults == 0 || len(st.FaultPhases) == 0 {
		t.Errorf("summary misses the paging fault burst: %+v", st)
	}
	if st.SteadyIPC <= 0 {
		t.Errorf("steady IPC = %v", st.SteadyIPC)
	}
}

// collectSink records every published snapshot.
type collectSink struct {
	snaps []sim.TelemetrySnapshot
}

func (c *collectSink) PublishTelemetry(s sim.TelemetrySnapshot) { c.snaps = append(c.snaps, s) }

func TestTelemetrySinkPublishes(t *testing.T) {
	pc := pagingCase()
	cfg := caseConfig(pc, excep.ModePrecise)
	cfg.SampleEvery = 1000
	s, err := sim.New(cfg, buildSpec(t, pc))
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	s.SetTelemetrySink(sink) // publishes at the sampling period
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.snaps) < 2 {
		t.Fatalf("got %d publishes", len(sink.snaps))
	}
	last := sink.snaps[len(sink.snaps)-1]
	if !last.Finished {
		t.Error("final publish not marked finished")
	}
	if last.Cycle != r.Cycles {
		t.Errorf("final publish at cycle %d, run finished at %d", last.Cycle, r.Cycles)
	}
	if last.TotalSMs != cfg.System.NumSMs {
		t.Errorf("TotalSMs = %d, want %d", last.TotalSMs, cfg.System.NumSMs)
	}
	if last.BlocksDone != last.BlocksTotal || last.BlocksTotal == 0 {
		t.Errorf("blocks %d/%d at completion", last.BlocksDone, last.BlocksTotal)
	}
	if last.Committed != r.Committed {
		t.Errorf("published committed = %d, result has %d", last.Committed, r.Committed)
	}
	if last.Series.N != r.Series.N {
		t.Errorf("published series has %d samples, result has %d", last.Series.N, r.Series.N)
	}
	if len(last.Metrics.Counters)+len(last.Metrics.Gauges) == 0 {
		t.Error("published metrics snapshot is empty")
	}
	prev := int64(-1)
	for i, sn := range sink.snaps {
		if sn.Cycle < prev {
			t.Fatalf("publish %d at cycle %d after cycle %d", i, sn.Cycle, prev)
		}
		prev = sn.Cycle
	}

	// Attaching a sink must not change the simulation.
	plain, _, _ := runTelemetry(t, 1000, false)
	if plain.Cycles != r.Cycles {
		t.Errorf("sink changed cycles: %d vs %d", r.Cycles, plain.Cycles)
	}
	if !reflect.DeepEqual(plain.Metrics, r.Metrics) {
		t.Error("sink changed the metrics snapshot")
	}
}
