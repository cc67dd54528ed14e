package bench_test

import (
	"bytes"
	"testing"

	"optanesim/internal/bench"
	"optanesim/internal/runner"
	"optanesim/internal/telemetry"
)

// telemetryUnits is the subset the telemetry regression runs, all at
// -quick scale: fig2 (read-buffer traffic, the paper's headline
// observation), fig4 (write-buffer evictions), latency (a single thread
// over five systems per unit) and bandwidth (multi-thread runs, whose
// recorded order is the scheduler's min-time order).
func telemetryUnits(t *testing.T, o bench.Options) []bench.Unit {
	t.Helper()
	var units []bench.Unit
	for _, name := range []string{"fig2", "fig4", "latency", "bandwidth"} {
		exp, ok := bench.ExperimentUnits(name, o)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		units = append(units, exp...)
	}
	return units
}

// runTelemetry executes the units on a pool of the given width and
// returns the recordings' JSONL exports exactly as optbench's
// -events-out and -sample-out flags emit them, in submission order.
func runTelemetry(t *testing.T, workers int) (events, samples []byte, recs []*telemetry.Recording) {
	t.Helper()
	o := bench.Options{
		Quick: true,
		Telemetry: func(unit string) *telemetry.Recorder {
			return telemetry.NewRecorder(unit, telemetry.Config{})
		},
	}
	units := telemetryUnits(t, o)
	tasks := make([]runner.Task, len(units))
	for i, u := range units {
		u := u
		tasks[i] = runner.Task{ID: u.ID(), Run: func() (any, error) { return u.Run(), nil }}
	}
	for _, r := range runner.Run(tasks, workers) {
		if r.Err != nil {
			t.Fatalf("unit %s: %v", r.ID, r.Err)
		}
		ur := r.Value.(bench.UnitResult)
		if ur.Telemetry == nil {
			t.Fatalf("unit %s returned no recording", r.ID)
		}
		if ur.SimCycles == 0 {
			t.Fatalf("unit %s reported zero simulated cycles", r.ID)
		}
		recs = append(recs, ur.Telemetry)
	}
	var evBuf, smBuf bytes.Buffer
	if err := telemetry.WriteEventsJSONL(&evBuf, recs...); err != nil {
		t.Fatalf("events: %v", err)
	}
	if err := telemetry.WriteSamplesJSONL(&smBuf, recs...); err != nil {
		t.Fatalf("samples: %v", err)
	}
	return evBuf.Bytes(), smBuf.Bytes(), recs
}

// TestTelemetryDeterminismAcrossWorkerCounts extends the repo's
// byte-identical guarantee to the recorded telemetry: the event stream
// and sampler series of a run must not depend on the worker count.
func TestTelemetryDeterminismAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation sweep; skipped in -short mode")
	}
	t.Parallel()
	seqEv, seqSm, _ := runTelemetry(t, 1)
	parEv, parSm, _ := runTelemetry(t, 8)
	if !bytes.Equal(seqEv, parEv) {
		t.Errorf("event streams differ between -j 1 and -j 8:\n%s", firstLineDiff(seqEv, parEv))
	}
	if !bytes.Equal(seqSm, parSm) {
		t.Errorf("sampler series differ between -j 1 and -j 8:\n%s", firstLineDiff(seqSm, parSm))
	}
}

// TestTelemetryUnchangedResults asserts recording is a pure observer at
// the experiment level too: structured results with telemetry attached
// are byte-identical to a run without it.
func TestTelemetryUnchangedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation sweep; skipped in -short mode")
	}
	t.Parallel()
	run := func(o bench.Options) []byte {
		units := telemetryUnits(t, o)
		return runStructured(t, units, 4)
	}
	plain := run(bench.Options{Quick: true})
	recorded := run(bench.Options{Quick: true, Telemetry: func(unit string) *telemetry.Recorder {
		return telemetry.NewRecorder(unit, telemetry.Config{})
	}})
	if !bytes.Equal(plain, recorded) {
		t.Fatalf("structured results change when telemetry is attached:\n%s", firstLineDiff(plain, recorded))
	}
}

// TestTelemetryTraceExport runs the telemetry units and validates the Chrome
// trace export end to end: structural validity plus the presence of the
// read-buffer and write-buffer event types the paper's observations hinge
// on.
func TestTelemetryTraceExport(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation sweep; skipped in -short mode")
	}
	t.Parallel()
	_, samples, recs := runTelemetry(t, 4)

	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, recs...); err != nil {
		t.Fatalf("writing trace: %v", err)
	}
	if _, err := telemetry.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	names, err := telemetry.EventNames(buf.Bytes())
	if err != nil {
		t.Fatalf("reading names: %v", err)
	}
	for _, want := range []string{"rb-hit", "rb-miss", "rb-install", "wcb-alloc", "wcb-evict", "media-read", "media-write"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q events", want)
		}
	}

	// And the sampler JSONL must round-trip into plottable series.
	parsed, err := telemetry.ReadSamplesJSONL(bytes.NewReader(samples))
	if err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(parsed) != len(recs) {
		t.Fatalf("round-trip units: got %d, want %d", len(parsed), len(recs))
	}
	for _, us := range parsed {
		if len(us.Series) == 0 {
			t.Errorf("unit %s: no series after round-trip", us.Unit)
			continue
		}
		for _, s := range us.Series {
			ps := s.Plot()
			if len(ps.X) != len(s.Samples) || len(ps.Y) != len(s.Samples) {
				t.Errorf("unit %s series %s: plot bridge lost points (%d/%d != %d)",
					us.Unit, s.Name, len(ps.X), len(ps.Y), len(s.Samples))
			}
		}
	}
}
