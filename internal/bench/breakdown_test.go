package bench_test

import (
	"bytes"
	"testing"

	"optanesim/internal/bench"
	"optanesim/internal/runner"
	"optanesim/internal/telemetry"
)

// runBreakdown executes the named experiments at -quick scale with an
// attribution-enabled recorder per unit and returns the recordings in
// submission order plus the hist JSONL export (optbench's -hist-out).
func runBreakdown(t *testing.T, names []string, workers int) (recs []*telemetry.Recording, hists []byte) {
	t.Helper()
	o := bench.Options{Quick: true, Telemetry: func(unit string) *telemetry.Recorder {
		return telemetry.NewRecorder(unit, telemetry.Config{Breakdown: true})
	}}
	var units []bench.Unit
	for _, name := range names {
		exp, ok := bench.ExperimentUnits(name, o)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		units = append(units, exp...)
	}
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
		if ur.Telemetry == nil || ur.Telemetry.Breakdown == nil {
			t.Fatalf("unit %s returned no breakdown recording", r.ID)
		}
		recs = append(recs, ur.Telemetry)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteHistsJSONL(&buf, recs...); err != nil {
		t.Fatalf("hists: %v", err)
	}
	return recs, buf.Bytes()
}

// TestBreakdownConservation pins the attribution layer's core invariant
// on a real workload: for every unit, the op-bank component histograms
// sum to exactly the total measured latency of every finished op (the
// per-class histograms' sum). Nothing double-counted, nothing lost.
func TestBreakdownConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation sweep; skipped in -short mode")
	}
	recs, _ := runBreakdown(t, []string{"fig2", "fig4"}, 4)
	for _, rec := range recs {
		bd := rec.Breakdown
		if op, cls := bd.OpSum(), bd.ClassSum(); op != cls || op == 0 {
			t.Errorf("%s: op-component sum %d != class-total sum %d (conservation)",
				rec.Unit, op, cls)
		}
	}
}

// TestTenantsUnitSplits checks the two-tenant experiment: both tenants
// appear in its structured data with their distinct workloads' op
// classes, and conservation holds per recording.
func TestTenantsUnitSplits(t *testing.T) {
	recs, _ := runBreakdown(t, []string{"tenants"}, 1)
	if len(recs) != 1 {
		t.Fatalf("tenants: got %d recordings, want 1", len(recs))
	}
	bd := recs[0].Breakdown
	if op, cls := bd.OpSum(), bd.ClassSum(); op != cls || op == 0 {
		t.Fatalf("conservation broken across tenants: op %d, class %d", op, cls)
	}
	classes := make(map[string]map[string]bool) // tenant -> class names
	for _, s := range bd.Summaries() {
		if s.Scope == telemetry.ScopeClass {
			if classes[s.Tenant] == nil {
				classes[s.Tenant] = make(map[string]bool)
			}
			classes[s.Tenant][s.Name] = true
		}
	}
	if !classes["tenantA"]["load"] {
		t.Errorf("tenantA (reader) recorded no load class: %v", classes)
	}
	if !classes["tenantB"]["store"] || !classes["tenantB"]["fence"] {
		t.Errorf("tenantB (persister) missing store/fence classes: %v", classes)
	}
	if classes["tenantA"]["store"] {
		t.Errorf("reader tenant recorded stores — tenant attribution leaked: %v", classes)
	}
}

// TestBreakdownHistsDeterministicAcrossWorkerCounts extends the -j
// byte-identity guarantee to the hist JSONL sink.
func TestBreakdownHistsDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation sweep; skipped in -short mode")
	}
	_, seq := runBreakdown(t, []string{"fig2", "fig4"}, 1)
	_, par := runBreakdown(t, []string{"fig2", "fig4"}, 8)
	if !bytes.Equal(seq, par) {
		t.Errorf("hist JSONL differs between -j 1 and -j 8:\n%s", firstLineDiff(seq, par))
	}
}
