package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestMain runs the tests from the repository root, where the harness
// runs and finds the goldens.
func TestMain(m *testing.M) {
	if err := os.Chdir("../.."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestWorkloadTableResolves(t *testing.T) {
	seen := make(map[string]string)
	for _, w := range workloads {
		for _, id := range w.Units {
			if prev, dup := seen[id]; dup {
				t.Errorf("unit %q listed by both %s and %s", id, prev, w.Name)
			}
			seen[id] = w.Name
		}
		p, err := setup(w, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(p.units) != len(w.Units) {
			t.Errorf("%s: resolved %d of %d units", w.Name, len(p.units), len(w.Units))
		}
		if len(p.unassigned) > 0 {
			t.Logf("registered units no workload lists: %v", p.unassigned)
		}
	}
	// Today the five workloads are exactly the 66 units of
	// `optbench -quick all`; a new experiment shows up as unassigned.
	if len(seen) != 66 {
		t.Errorf("workloads list %d units, want the 66 of optbench -quick all", len(seen))
	}
}

func TestSetupRejectsBadTables(t *testing.T) {
	for _, w := range []workload{
		{Name: "typo", Units: []string{"fig8/G1 strictt"}},
		{Name: "half-golden", Units: []string{"fig2/G1"}},
	} {
		if _, err := setup(w, 0, nil); err == nil {
			t.Errorf("%s: setup accepted %v", w.Name, w.Units)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the metric
// lists the summary line prints in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []boundSpec `json:"end_to_end"`
		PerLayer []boundSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(names), len(workloads))
	}
	var e2e, layer []string
	maxBound, setupBound := 0.0, 0.0
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		maxBound = max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer %s has a bound", m.Name)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end %v, harness prints %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per_layer %v, harness prints %v", layer, perLayer)
	}
	for _, n := range append(e2e, layer...) {
		if strings.Trim(n, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") != "" {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", n)
		}
	}
}
