package bench

import (
	"bytes"
	"encoding/json"
	"fmt"

	"optanesim/internal/fault"
	"optanesim/internal/machine"
	"optanesim/internal/sim"
	"optanesim/internal/telemetry"
)

// Options selects the scale of a registry-driven experiment run. The
// zero value runs every experiment at the full scale EXPERIMENTS.md
// records.
type Options struct {
	// Quick runs each experiment at reduced scale (smoke-test sized).
	Quick bool
	// Telemetry, when non-nil, supplies a per-unit recorder: every unit
	// attaches it to each machine system it runs (Meter.Run) and hands
	// the frozen Recording back in UnitResult.Telemetry. The factory is
	// called from the unit's own goroutine, once per unit.
	Telemetry func(unit string) *telemetry.Recorder
	// Seed, when nonzero, overrides the sampling seeds of the matrix
	// experiments (crashmatrix state sampling, faultmatrix injection):
	// unit i of a matrix derives Seed+i, so a failing sampled run is
	// reproducible from the CLI (-seed). Zero keeps each unit's fixed
	// built-in seed — the golden configuration.
	Seed uint64
	// Fault, when non-nil, attaches a fresh per-unit fault.Injector built
	// from this config to every machine system a unit runs (Meter.Run),
	// degrading the experiments' PM path. Three experiments do not take
	// it: crashmatrix runs no timed system, faultmatrix cells construct
	// their own injectors, and tenants builds its own meter.
	Fault *fault.Config
}

// matrixSeed derives unit i's sampling seed: the unit's fixed built-in
// default, or Seed+i when an override is set.
func (o Options) matrixSeed(dflt uint64, i int) uint64 {
	if o.Seed != 0 {
		return o.Seed + uint64(i)
	}
	return dflt
}

// scale picks the full or reduced value of a knob.
func (o Options) scale(full, reduced int) int {
	if o.Quick {
		return reduced
	}
	return full
}

// Unit is one independently runnable slice of an experiment — e.g. one
// generation's panel of a figure. Units build their own simulator
// instances and share no mutable state, so a runner may execute the
// units of one or many experiments concurrently; only the order of the
// collected results matters for output determinism.
type Unit struct {
	// Experiment is the registry name, e.g. "fig2".
	Experiment string
	// Name distinguishes the unit within its experiment, e.g. "G1" or
	// "G1 local PM". Empty for single-unit experiments.
	Name string
	// opts supplies the telemetry factory and fault config of the meter
	// body runs under (Run); units not built by Options.unit carry none.
	opts Options
	body func(*Meter) UnitResult
}

// Run computes the unit's structured result: the body runs under a meter
// built from the unit's ID, the Telemetry factory and the fault config,
// and the meter's simulated cycles and frozen recording are stamped into
// the result together with the unit's identity.
func (u Unit) Run() UnitResult {
	m := &Meter{}
	if u.opts.Telemetry != nil {
		m.Rec = u.opts.Telemetry(u.ID())
	}
	if u.opts.Fault != nil {
		m.Inj = fault.New(*u.opts.Fault)
	}
	ur := u.body(m)
	ur.Experiment, ur.Unit, ur.SimCycles = u.Experiment, u.Name, m.SimCycles
	if m.Rec != nil {
		ur.Telemetry = m.Rec.Snapshot()
	}
	return ur
}

// ID names the unit for task tracking: "fig2/G1", or just "table1" for
// single-unit experiments.
func (u Unit) ID() string {
	if u.Name == "" {
		return u.Experiment
	}
	return u.Experiment + "/" + u.Name
}

// UnitResult is the structured outcome of one unit: the typed result
// rows/series the paper plots, plus the human-readable rendering. Data
// is what -json emits; it must depend only on the simulation (never on
// wall-clock time), so records are byte-identical across runs and
// worker counts.
type UnitResult struct {
	Experiment string `json:"experiment"`
	Unit       string `json:"unit,omitempty"`
	Data       any    `json:"data"`
	// Text is the rendering optbench prints; excluded from JSON.
	Text string `json:"-"`
	// Telemetry is the unit's frozen recording when Options.Telemetry was
	// set and the experiment is instrumented; nil otherwise. Excluded
	// from JSON so -json output is byte-identical with telemetry on.
	Telemetry *telemetry.Recording `json:"-"`
	// SimCycles totals the simulated cycles of the unit's machine runs
	// (0 for units that run no timed system). Excluded from JSON.
	SimCycles sim.Cycles `json:"-"`
}

// Meter is the one way the bench layer builds and runs machine systems:
// every experiment takes its unit's Meter, builds each system with
// Meter.System and runs it with Meter.Run, which attaches the unit's
// fault injector and telemetry recorder and accumulates simulated
// cycles. The exported drivers (Fig2 etc.) run under a zero Meter,
// which only builds and runs.
type Meter struct {
	// Rec is the unit's recorder, nil when telemetry is off.
	Rec *telemetry.Recorder
	// Inj is the unit's fault injector, nil when faults are off. One
	// injector spans the unit's systems, so poison and wear accumulate
	// across a sweep the way they would on one physical module.
	Inj *fault.Injector
	// SimCycles accumulates the end times of every metered run.
	SimCycles sim.Cycles
	// last is the previous system System built: the donor of the next.
	last *machine.System
}

// System builds a fresh system for cfg into the storage of the previous
// system this meter built (machine.NewSystemReusing), so a sweep's cells
// recycle the cache geometry instead of re-allocating it. The result is
// observably identical to machine.NewSystem's, and valid until the next
// call: its storage then passes to the next system.
func (m *Meter) System(cfg machine.Config) *machine.System {
	donor := m.last
	// Drop the field first: a donor of another geometry (fig4 alternates
	// G1 and G2) must be collectable while its replacement allocates.
	m.last = nil
	m.last = machine.MustNewSystemReusing(cfg, donor)
	return m.last
}

// Run executes sys to completion under the meter. Faults attach before
// telemetry so the recorder registers the fault gauges.
func (m *Meter) Run(sys *machine.System) sim.Cycles {
	if m.Inj != nil {
		sys.AttachFaults(m.Inj)
	}
	if m.Rec != nil {
		sys.AttachTelemetry(m.Rec)
	}
	end := sys.Run()
	m.SimCycles += end
	return end
}

// unit builds the registry unit exp/name, whose body runs under a meter
// built from these options (Unit.Run).
func (o Options) unit(exp, name string, body func(*Meter) UnitResult) Unit {
	return Unit{Experiment: exp, Name: name, opts: o, body: body}
}

// experimentSpec ties a registry name to its unit constructor.
type experimentSpec struct {
	Name  string
	Units func(Options) []Unit
}

// registry lists every experiment in the paper's order.
var registry = []experimentSpec{
	{"fig2", fig2Units},
	{"fig3", fig3Units},
	{"fig4", fig4Units},
	{"fig6", fig6Units},
	{"fig7", fig7Units},
	{"fig8", fig8Units},
	{"table1", table1Units},
	{"fig10", fig10Units},
	{"fig12", fig12Units},
	{"fig13", fig13Units},
	{"fig14", fig14Units},
	{"ablation", ablationUnits},
	{"bandwidth", bandwidthUnits},
	{"ycsb", ycsbUnits},
	{"sec33", sec33Units},
	{"latency", latencyUnits},
	{"indexes", indexesUnits},
	{"crashmatrix", crashmatrixUnits},
	{"replay", replayUnits},
	{"faultmatrix", faultmatrixUnits},
	{"tenants", tenantsUnits},
}

// ExperimentNames lists the registered experiments in the paper's
// order.
func ExperimentNames() []string {
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.Name
	}
	return names
}

// ExperimentUnits returns the units of the named experiment at the
// given scale, or false for an unknown name.
func ExperimentUnits(name string, o Options) ([]Unit, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s.Units(o), true
		}
	}
	return nil, false
}

// EncodeJSONL renders unit results as compact JSON lines, one line per
// unit, in slice order. The encoding is deterministic: struct fields
// keep declaration order and map keys are sorted, so two runs of the
// same experiments produce byte-identical output regardless of worker
// count.
func EncodeJSONL(results []UnitResult) ([]byte, error) {
	var b bytes.Buffer
	for _, r := range results {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("bench: encoding %s/%s: %w", r.Experiment, r.Unit, err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes(), nil
}

// EncodeIndentedJSON renders unit results as an indented JSON array —
// the format of the golden files under testdata, chosen so that drift
// shows up as a readable line diff.
func EncodeIndentedJSON(results []UnitResult) ([]byte, error) {
	out, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
