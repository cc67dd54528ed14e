package telemetry

import (
	"reflect"
	"strings"
	"testing"
)

// attrForTest builds a scratchpad over a fresh store.
func attrForTest(t *testing.T) (*OpAttr, *Recorder) {
	t.Helper()
	r := NewRecorder("bd", Config{Breakdown: true})
	a := r.Attr()
	if a == nil {
		t.Fatal("Breakdown-enabled recorder returned a nil Attr")
	}
	return a, r
}

func findHist(rec *BreakdownRecording, tenant, scope, name string) *HistSummary {
	for _, s := range rec.Summaries() {
		if s.Tenant == tenant && s.Scope == scope && s.Name == name {
			s := s
			return &s
		}
	}
	return nil
}

func TestFinishOpResidualAndTrim(t *testing.T) {
	a, r := attrForTest(t)

	// Under-attribution: the gap lands in CompOther.
	a.Add(CompIssue, 10)
	a.Add(CompMedia, 50)
	a.FinishOp(ClassLoad, 100)

	// Over-attribution: trimOrder removes hideable memory components
	// first (CompL2Hit before CompIssue).
	a.Add(CompIssue, 10)
	a.Add(CompL2Hit, 90)
	a.FinishOp(ClassLoad, 40)

	rec := r.Snapshot().Breakdown
	if got := findHist(rec, "", ScopeOp, "other"); got == nil || got.Sum != 40 {
		t.Fatalf("residual: other = %+v, want sum 40", got)
	}
	if got := findHist(rec, "", ScopeOp, "l2-hit"); got == nil || got.Sum != 30 {
		t.Fatalf("trim: l2-hit = %+v, want sum 30 (90 trimmed by 60 overlap)", got)
	}
	if got := findHist(rec, "", ScopeOp, "issue"); got == nil || got.Sum != 20 {
		t.Fatalf("trim: issue = %+v, want sum 20 (trimmed last, untouched)", got)
	}
	// Conservation: op components sum exactly to the class totals.
	if rec.OpSum() != rec.ClassSum() || rec.ClassSum() != 140 {
		t.Fatalf("OpSum %d, ClassSum %d, want both 140", rec.OpSum(), rec.ClassSum())
	}
}

func TestServiceEpisodesPoolAndIsolate(t *testing.T) {
	a, r := attrForTest(t)

	// Nested episodes pool into one sample per component.
	a.BeginService()
	a.Add(CompWCBInstall, 5)
	a.BeginService()
	a.Add(CompWCBInstall, 7)
	a.EndService()
	a.Add(CompMediaWrite, 11)
	a.EndService()

	// An isolated episode inside an open one flushes separately and
	// restores the enclosing pooled state.
	a.BeginService()
	a.Add(CompPeriodicWB, 100)
	saved, dirty := a.BeginIsolated()
	a.Add(CompWPQAccept, 3)
	a.EndIsolated(saved, dirty)
	a.EndService()

	rec := r.Snapshot().Breakdown
	if got := findHist(rec, "", ScopeService, "wcb-install"); got == nil || got.Count != 1 || got.Sum != 12 {
		t.Fatalf("pooled wcb-install = %+v, want one sample of 12", got)
	}
	if got := findHist(rec, "", ScopeService, "wpq-accept"); got == nil || got.Count != 1 || got.Sum != 3 {
		t.Fatalf("isolated wpq-accept = %+v, want one sample of 3", got)
	}
	if got := findHist(rec, "", ScopeService, "periodic-wb"); got == nil || got.Count != 1 || got.Sum != 100 {
		t.Fatalf("enclosing periodic-wb = %+v, want one sample of 100", got)
	}
}

func TestTenantSplit(t *testing.T) {
	a, r := attrForTest(t)
	ta := a.Tenant("alpha")
	tb := a.Tenant("beta")
	if a.Tenant("alpha") != ta || ta == tb || a.Tenant("") != 0 {
		t.Fatal("tenant interning broken")
	}

	a.SetCurrentTenant(ta)
	a.Add(CompIssue, 5)
	a.FinishOp(ClassLoad, 5)
	a.SetCurrentTenant(tb)
	a.Add(CompIssue, 7)
	a.FinishOp(ClassLoad, 7)

	rec := r.Snapshot().Breakdown
	if got := findHist(rec, "alpha", ScopeOp, "issue"); got == nil || got.Sum != 5 {
		t.Fatalf("alpha issue = %+v", got)
	}
	if got := findHist(rec, "beta", ScopeOp, "issue"); got == nil || got.Sum != 7 {
		t.Fatalf("beta issue = %+v", got)
	}

	// WriteTable renders every non-empty tenant block (the default
	// tenant recorded nothing, so it is omitted).
	var b strings.Builder
	rec.WriteTable(&b)
	for _, want := range []string{"tenant alpha", "tenant beta", "issue"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("WriteTable missing %q:\n%s", want, b.String())
		}
	}
}

func TestSummariesDeterministicAndMerge(t *testing.T) {
	build := func() *BreakdownRecording {
		a, r := attrForTest(t)
		a.SetCurrentTenant(a.Tenant("x"))
		a.Add(CompMedia, 300)
		a.Add(CompIssue, 20)
		a.FinishOp(ClassLoad, 320)
		a.BeginService()
		a.Add(CompPeriodicWB, 50)
		a.EndService()
		return r.Snapshot().Breakdown
	}
	r1, r2 := build(), build()
	if !reflect.DeepEqual(r1.Summaries(), r2.Summaries()) {
		t.Fatal("Summaries not deterministic across identical runs")
	}

	merged := MergeBreakdowns(nil, r1)
	merged = MergeBreakdowns(merged, r2)
	if got := findHist(merged, "x", ScopeOp, "media-read"); got == nil || got.Count != 2 || got.Sum != 600 {
		t.Fatalf("merged media-read = %+v, want count 2 sum 600", got)
	}
	if got := findHist(merged, "x", ScopeClass, "load"); got == nil || got.Count != 2 || got.Sum != 640 {
		t.Fatalf("merged class load = %+v", got)
	}
	// Merging must not alias source histograms.
	if h := findHist(r1, "x", ScopeOp, "media-read"); h.Count != 1 {
		t.Fatal("MergeBreakdowns mutated its source")
	}
	// nil src is a no-op; nil recording summarizes to nothing.
	if out := MergeBreakdowns(merged, nil); out != merged {
		t.Fatal("MergeBreakdowns(dst, nil) must return dst")
	}
	var nilRec *BreakdownRecording
	if nilRec.Summaries() != nil {
		t.Fatal("nil recording Summaries != nil")
	}
}
