// Package telemetry is the simulator's introspection layer: a
// low-overhead structured event stream emitted from the model's decision
// points (cache fills, WPQ traffic, on-DIMM buffer transitions, media
// operations, persists), a time-series sampler that snapshots gauge-style
// state every N simulated cycles, and sinks that export both — Chrome
// trace-event timelines for Perfetto, JSONL logs, and a live HTTP
// /metrics + /debug/pprof endpoint for watching long sweeps in flight.
//
// The paper infers on-DIMM buffer behaviour from two byte counters at
// the iMC boundary; this package makes the mechanisms behind those
// counters directly observable. Everything recorded depends only on
// simulated state, so event streams and sampler series are byte-stable
// across runs and worker counts.
//
// Cost model: components hold a nil *Probe when telemetry is off, so the
// disabled path is a single pointer test per decision point — the
// machine package's hot-path alloc and golden-output invariants are
// unaffected.
package telemetry

import (
	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

// Config sizes a Recorder.
type Config struct {
	// EventCap bounds the event ring (most recent events are kept);
	// <= 0 selects DefaultEventCap.
	EventCap int
	// SampleEvery is the gauge-sampling period in simulated cycles;
	// <= 0 selects DefaultSampleEvery.
	SampleEvery sim.Cycles
	// Breakdown enables the per-op cycle-attribution layer: Attr
	// returns a live scratchpad and snapshots carry per-tenant
	// component histograms.
	Breakdown bool
}

// Default Recorder sizing.
const (
	DefaultEventCap    = 1 << 16
	DefaultSampleEvery = sim.Cycles(10000)
)

// Recorder collects one unit's telemetry: the event stream, the gauge
// sampler, and the source table. A unit may construct several machine
// systems in sequence (one per sweep cell); the recorder rebases each
// run's local cycle numbers onto one monotone unit timeline, so a single
// recording reads as one continuous trace.
//
// A Recorder is not safe for concurrent use; the intended topology is
// one recorder per experiment unit, owned by the goroutine running it.
type Recorder struct {
	unit    string
	stream  *Stream
	sampler *sampler

	sources []string
	probes  map[string]*Probe

	// base is the cycle offset of the current machine run on the unit
	// timeline: the sum of all completed runs' end times.
	base sim.Cycles

	// attr is the cycle-attribution scratchpad (nil when Breakdown is
	// off); bd is its backing per-tenant histogram store.
	attr *OpAttr
	bd   *Breakdown
}

// NewRecorder builds a recorder for the named unit.
func NewRecorder(unit string, cfg Config) *Recorder {
	if cfg.EventCap <= 0 {
		cfg.EventCap = DefaultEventCap
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	r := &Recorder{
		unit:    unit,
		stream:  newStream(cfg.EventCap),
		sampler: newSampler(cfg.SampleEvery),
		probes:  make(map[string]*Probe),
	}
	if cfg.Breakdown {
		r.bd = newBreakdown()
		r.attr = &OpAttr{bd: r.bd}
	}
	return r
}

// Attr returns the recorder's cycle-attribution scratchpad, or nil when
// attribution is off. Components hold the nil and guard every charge
// with a pointer test, mirroring the *Probe convention.
func (r *Recorder) Attr() *OpAttr { return r.attr }

// Unit returns the recorder's unit name.
func (r *Recorder) Unit() string { return r.unit }

// Probe returns the emission handle for the named source, registering
// the source on first sight. Repeated calls with the same name — e.g.
// from successive machine systems in one sweep — return the same probe,
// so a source's events stay under one id for the whole unit.
func (r *Recorder) Probe(source string) *Probe {
	if p, ok := r.probes[source]; ok {
		return p
	}
	p := &Probe{r: r, src: uint8(len(r.sources))}
	r.sources = append(r.sources, source)
	r.probes[source] = p
	return p
}

// RegisterGauge installs (or, for a name seen before, replaces) a
// sampled gauge. Replacing the function preserves the accumulated
// series: when a sweep's next cell builds a fresh machine system and
// re-registers its gauges, the series continues across the rebased
// timeline instead of restarting.
func (r *Recorder) RegisterGauge(name string, fn func(now sim.Cycles) float64) {
	r.sampler.register(name, fn)
}

// MaybeSample snapshots every gauge if the sampling period has elapsed
// since the last snapshot. now is the current machine run's local time;
// callers invoke this from per-operation hooks, so the off-period path
// must stay one comparison.
func (r *Recorder) MaybeSample(now sim.Cycles) {
	at := now + r.base
	if at < r.sampler.next {
		return
	}
	r.sampler.sample(at, now)
}

// NoteRunEnd advances the unit timeline past a completed machine run
// and takes a final gauge snapshot at the run's end, so every run
// contributes at least its closing state to the series.
func (r *Recorder) NoteRunEnd(end sim.Cycles) {
	r.sampler.sample(end+r.base, end)
	r.base += end
}

// Cycles reports the unit timeline's current extent: the total simulated
// cycles of all completed runs.
func (r *Recorder) Cycles() sim.Cycles { return r.base }

// Snapshot freezes the recorder's state into an immutable Recording.
func (r *Recorder) Snapshot() *Recording {
	rec := &Recording{
		Unit:      r.unit,
		Sources:   append([]string(nil), r.sources...),
		Events:    r.stream.Events(),
		Dropped:   r.stream.Dropped(),
		Series:    r.sampler.snapshot(),
		EndCycles: r.base,
	}
	if r.bd != nil {
		rec.Breakdown = r.bd.snapshot()
	}
	return rec
}

// Probe is one source's emission handle: the recorder plus the source's
// id. Components hold a nil *Probe when telemetry is off and guard every
// emission with a nil test.
type Probe struct {
	r   *Recorder
	src uint8
}

// Emit records one event at local-run time at; the probe rebases it onto
// the unit timeline. The receiver must be non-nil (callers nil-check, so
// the disabled path costs one branch and no call).
func (p *Probe) Emit(at sim.Cycles, k Kind, addr mem.Addr, arg uint64) {
	p.r.stream.emit(Event{At: at + p.r.base, Addr: addr, Arg: arg, Kind: k, Src: p.src})
}
