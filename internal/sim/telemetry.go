package sim

import (
	"gpues/internal/obs"
)

// TelemetrySnapshot is the read-only state handed to a telemetry sink
// at each publish point. Everything in it is either a value copy or an
// immutable view (the series prefix, the trace tail), so a sink may
// hold or serve it from other goroutines while the simulation keeps
// running — the foundation of the live introspection server's
// race-freedom.
type TelemetrySnapshot struct {
	// Cycle is the simulated cycle of the publish; Finished marks the
	// final publish of a completed run.
	Cycle    int64
	Finished bool

	// ActiveSMs counts SMs in the runnable set; TotalSMs the machine
	// size. BlocksDone/BlocksTotal track grid completion. Committed is
	// the GPU-wide committed-instruction total.
	ActiveSMs   int
	TotalSMs    int
	BlocksDone  int
	BlocksTotal int
	Committed   int64

	// WatchdogWindow is the livelock window (0 when disabled);
	// SinceProgress how many cycles the progress signature has been
	// unchanged at publish time.
	WatchdogWindow int64
	SinceProgress  int64

	// Metrics is a full registry snapshot; Series the sampled series so
	// far (zero view when sampling is off); Trace the newest tracer
	// events (nil without a tracer).
	Metrics obs.Snapshot
	Series  obs.SeriesView
	Trace   []obs.Event
}

// TelemetrySink receives telemetry snapshots. Implementations must not
// touch the simulator; everything they need rides on the snapshot.
// PublishTelemetry is called from the simulation goroutine at the
// sequential flush point, never concurrently with itself.
type TelemetrySink interface {
	PublishTelemetry(TelemetrySnapshot)
}

// DefaultTelemetryEvery is the publish period in cycles when no
// sampling period is configured.
const DefaultTelemetryEvery = 1 << 16

// telemetryTraceTail bounds the trace events carried on each snapshot.
const telemetryTraceTail = 64

// SetTelemetrySink attaches a telemetry sink publishing at the sampling
// period when one is configured, else every DefaultTelemetryEvery
// cycles. Call before Run. Publishing reads state and never schedules
// events, so an attached sink cannot change simulated cycle counts.
func (s *Simulator) SetTelemetrySink(sink TelemetrySink) {
	s.sink = sink
	s.sinkEvery = DefaultTelemetryEvery
	if s.sampler != nil {
		s.sinkEvery = s.sampler.Every()
	}
	s.nextPublish = 0
}

// maybeTelemetry is the per-cycle telemetry hook. It runs in the main
// loop right after the tick phase, so every sample and publish
// observes the state the tick sweep produced at that cycle. Two
// compares on the idle path.
func (s *Simulator) maybeTelemetry(now int64) {
	if s.sampler != nil && now >= s.nextSample {
		s.sampler.Sample(now)
		// Align to multiples of the period so a SkipTo jump lands the
		// next sample on the same boundary a step-by-step run would.
		s.nextSample = (now/s.sampler.Every() + 1) * s.sampler.Every()
	}
	if s.sink != nil && now >= s.nextPublish {
		s.publishTelemetry(now, false)
		s.nextPublish = (now/s.sinkEvery + 1) * s.sinkEvery
	}
}

// closeTelemetry takes the final sample (so the series covers the tail
// partial interval) and publishes the finished snapshot.
func (s *Simulator) closeTelemetry() {
	now := s.q.Now()
	if s.sampler != nil && s.sampler.LastCycle() < now {
		s.sampler.Sample(now)
	}
	if s.sink != nil {
		s.publishTelemetry(now, true)
	}
}

// publishTelemetry builds a snapshot and hands it to the sink.
// Allocates — bounded by the publish period, never on the per-cycle
// path.
func (s *Simulator) publishTelemetry(now int64, finished bool) {
	snap := TelemetrySnapshot{
		Cycle:       now,
		Finished:    finished,
		TotalSMs:    len(s.sms),
		BlocksDone:  s.disp.Completed(),
		BlocksTotal: s.spec.Launch.Blocks(),
		Metrics:     s.reg.Snapshot(),
		Series:      s.sampler.View(),
		Trace:       s.tracer.Tail(telemetryTraceTail),
	}
	for _, w := range s.active {
		for ; w != 0; w &= w - 1 {
			snap.ActiveSMs++
		}
	}
	for _, m := range s.sms {
		snap.Committed += m.Stats().Committed
	}
	if s.wd != nil {
		snap.WatchdogWindow = s.progressWindow
		snap.SinceProgress = now - s.wd.lastMove
	}
	s.sink.PublishTelemetry(snap)
}

// Series returns the sampled telemetry series so far (a zero view when
// Config.SampleEvery is 0).
func (s *Simulator) Series() obs.SeriesView { return s.sampler.View() }
