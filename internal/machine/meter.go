package machine

import (
	"optanesim/internal/fault"
	"optanesim/internal/sim"
	"optanesim/internal/telemetry"
)

// Meter is the one path on which the simulator's own drivers build,
// degrade, record and run systems: the experiments, trace replay, the
// script runner, calibration and the telemetry microbenchmarks each
// build every system with Meter.System and run it with Meter.Run, which
// attaches the meter's fault injector and telemetry recorder and
// accumulates simulated cycles. A zero Meter only builds and runs.
// NewSystem and System.Run remain for library users and examples.
type Meter struct {
	// Rec is the recorder every run attaches, nil when telemetry is off.
	Rec *telemetry.Recorder
	// Inj is the fault injector every run attaches, nil when faults are
	// off. One injector spans the meter's systems, so poison and wear
	// accumulate across a sweep the way they would on one physical
	// module.
	Inj *fault.Injector
	// SimCycles accumulates the end times of every metered run.
	SimCycles sim.Cycles
	// last is the previous system System built: the donor of the next.
	last *System
}

// System builds a fresh system for cfg into the storage of the previous
// system this meter built (newSystemReusing), so a sweep's cells recycle
// the cache geometry instead of re-allocating it. The result is
// observably identical to NewSystem's, and valid until the next call:
// its storage then passes to the next system. An invalid cfg panics.
func (m *Meter) System(cfg Config) *System {
	donor := m.last
	// Drop the field first: a donor of another geometry (fig4 alternates
	// G1 and G2) must be collectable while its replacement allocates.
	m.last = nil
	s, err := newSystemReusing(cfg, donor)
	if err != nil {
		panic(err)
	}
	m.last = s
	return s
}

// Run executes sys to completion under the meter. Faults attach before
// telemetry so the recorder registers the fault gauges.
func (m *Meter) Run(sys *System) sim.Cycles {
	if m.Inj != nil {
		sys.attachFaults(m.Inj)
	}
	if m.Rec != nil {
		sys.attachTelemetry(m.Rec)
	}
	end := sys.Run()
	m.SimCycles += end
	return end
}
