package calib

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestDatasetVocabulary pins the contract between the reference tables
// and the measurement code: every published value uses a metric Measure
// produces, with the canonical unit, exactly once per dataset.
func TestDatasetVocabulary(t *testing.T) {
	if err := checkVocabulary(Datasets()); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetsHaveProvenance(t *testing.T) {
	for _, ds := range Datasets() {
		if ds.Name == "" || ds.Version == "" || ds.Source == "" || ds.Hardware == "" {
			t.Errorf("dataset %+v missing identity fields", ds.Name)
		}
		if len(ds.Refs) == 0 {
			t.Errorf("dataset %s has no reference values", ds.Name)
		}
	}
}

func TestCheckVocabularyRejectsBadDatasets(t *testing.T) {
	cases := []struct {
		name string
		ds   Dataset
	}{
		{"unknown metric", Dataset{Name: "x", Refs: []RefValue{{Metric: "nope", Value: 1, Unit: "ns"}}}},
		{"wrong unit", Dataset{Name: "x", Refs: []RefValue{{Metric: "pm_wa_seq", Value: 1, Unit: "ns"}}}},
		{"non-positive", Dataset{Name: "x", Refs: []RefValue{{Metric: "pm_wa_seq", Value: 0, Unit: "ratio"}}}},
		{"duplicate", Dataset{Name: "x", Refs: []RefValue{
			{Metric: "pm_wa_seq", Value: 1, Unit: "ratio"},
			{Metric: "pm_wa_seq", Value: 2, Unit: "ratio"},
		}}},
	}
	for _, c := range cases {
		if err := checkVocabulary([]Dataset{c.ds}); err == nil {
			t.Errorf("%s: checkVocabulary accepted a malformed dataset", c.name)
		}
	}
}

// fakeSim builds a full set of simulator values for report/compare
// tests without running the (multi-second) real measurements.
func fakeSim() []SimValue {
	out := make([]SimValue, len(metricDefs))
	for i, d := range metricDefs {
		out[i] = SimValue{Metric: d.Name, Value: float64(10 * (i + 1)), Unit: d.Unit}
	}
	return out
}

func TestBuildReportCoversDatasets(t *testing.T) {
	rep := BuildReport(fakeSim())
	if rep.SchemaVersion != SchemaVersion {
		t.Fatalf("schema version %d, want %d", rep.SchemaVersion, SchemaVersion)
	}
	if len(rep.Datasets) != len(Datasets()) {
		t.Fatalf("report covers %d datasets, want %d", len(rep.Datasets), len(Datasets()))
	}
	for i, dr := range rep.Datasets {
		want := len(Datasets()[i].Refs)
		if len(dr.Errors) != want {
			t.Errorf("dataset %s: %d error rows, want %d (every published metric must be measured)",
				dr.Dataset, len(dr.Errors), want)
		}
		for _, e := range dr.Errors {
			wantRel := math.Abs(e.Sim-e.Ref) / e.Ref
			if math.Abs(e.RelErr-wantRel) > 1e-12 {
				t.Errorf("%s/%s: rel err %v, want %v", dr.Dataset, e.Metric, e.RelErr, wantRel)
			}
		}
	}
}

func TestMarkdownMentionsEveryMetric(t *testing.T) {
	md := BuildReport(fakeSim()).Markdown()
	for _, ds := range Datasets() {
		if !strings.Contains(md, ds.Name) {
			t.Errorf("markdown missing dataset %s", ds.Name)
		}
		for _, r := range ds.Refs {
			if !strings.Contains(md, r.Metric) {
				t.Errorf("markdown missing metric %s", r.Metric)
			}
		}
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	g := NewGolden(fakeSim())
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseGolden(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Values) != len(g.Values) {
		t.Fatalf("round trip lost values: %d vs %d", len(back.Values), len(g.Values))
	}
}

func TestParseGoldenRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":      "not json",
		"wrong schema": `{"schema_version": 999, "values": [{"metric":"m","value":1,"unit":"ns"}]}`,
		"empty values": `{"schema_version": 1, "values": []}`,
	}
	for name, in := range cases {
		if _, err := ParseGolden([]byte(in)); err == nil {
			t.Errorf("%s: ParseGolden accepted %q", name, in)
		}
	}
}

func TestCompareGolden(t *testing.T) {
	base := fakeSim()
	g := NewGolden(base)

	if d := CompareGolden(g, base, 0); len(d) != 0 {
		t.Fatalf("identical values drifted: %v", d)
	}

	// A 5% move passes a 10% gate and fails a 1% gate.
	moved := append([]SimValue(nil), base...)
	moved[0].Value *= 1.05
	if d := CompareGolden(g, moved, 0.10); len(d) != 0 {
		t.Fatalf("5%% move failed 10%% gate: %v", d)
	}
	d := CompareGolden(g, moved, 0.01)
	if len(d) != 1 || d[0].Metric != base[0].Metric {
		t.Fatalf("5%% move past 1%% gate: got %v, want one drift on %s", d, base[0].Metric)
	}
	if math.Abs(d[0].Rel-0.05) > 1e-9 {
		t.Fatalf("drift rel %v, want 0.05", d[0].Rel)
	}

	// A metric missing from the golden, and one missing from current,
	// are both reported.
	extra := append(append([]SimValue(nil), base...), SimValue{Metric: "brand_new", Value: 1, Unit: "ns"})
	if d := CompareGolden(g, extra, 0.10); len(d) != 1 || !d[0].Missing || d[0].Metric != "brand_new" {
		t.Fatalf("new metric not flagged: %v", d)
	}
	if d := CompareGolden(g, base[1:], 0.10); len(d) != 1 || !d[0].Missing || d[0].Metric != base[0].Metric {
		t.Fatalf("dropped metric not flagged: %v", d)
	}
}

// TestMeasureIsDeterministicAndComplete runs the real measurements
// twice: the values must cover the whole metric vocabulary, be
// positive, and reproduce exactly — the property the CI drift gate
// relies on.
func TestMeasureIsDeterministicAndComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full calibration measurements; skipped in -short mode")
	}
	a := Measure()
	if len(a) != len(metricDefs) {
		t.Fatalf("Measure returned %d values, want %d", len(a), len(metricDefs))
	}
	for i, v := range a {
		if v.Metric != metricDefs[i].Name || v.Unit != metricDefs[i].Unit {
			t.Errorf("value %d is %s/%s, want %s/%s", i, v.Metric, v.Unit, metricDefs[i].Name, metricDefs[i].Unit)
		}
		if v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s has degenerate value %v", v.Metric, v.Value)
		}
	}
	b := Measure()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("metric %s not deterministic: %v vs %v", a[i].Metric, a[i].Value, b[i].Value)
		}
	}
}

// TestMeasureMatchesGolden pins every calibration value to the committed
// CALIB_golden.json with exact float64 equality. CI's drift gate allows
// 10%, so this is the check that sees any calibration cell move at all.
func TestMeasureMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full calibration measurements; skipped in -short mode")
	}
	data, err := os.ReadFile("../../CALIB_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ParseGolden(data)
	if err != nil {
		t.Fatal(err)
	}
	got := Measure()
	if len(got) != len(g.Values) {
		t.Fatalf("Measure returned %d values, the golden holds %d", len(got), len(g.Values))
	}
	for i, v := range got {
		if v != g.Values[i] {
			t.Errorf("value %d: measured %+v, golden %+v", i, v, g.Values[i])
		}
	}
}
