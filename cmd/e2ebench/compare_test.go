package main

import (
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values: statistics.quantiles(v, n=4) in Python.
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
	} {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{8, 12, 9, 11, 10, 8.5, 11.5, 9.5, 10.5, 10}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"same", base, base, false, 0.1, "unchanged"},
		{"within bound", base, scale(base, 1.05), false, 0.1, "unchanged"},
		{"worse than bound", base, scale(base, 1.2), false, 0.1, "regressed"},
		{"better everywhere", base, scale(base, 0.8), false, 0.1, "improved"},
		{"higher is better", base, scale(base, 0.8), true, 0.1, "regressed"},
		{"spread wider than bound", noisy, scale(noisy, 1.05), false, 0.1, "unresolved"},
		{"spread wide, change worse", noisy, scale(noisy, 1.5), false, 0.1, "regressed"},
		{"spread wide but every run better", noisy, scale(noisy, 0.5), false, 0.1, "improved"},
	} {
		if got := verdict(c.a, c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	bound := 0.1
	spec := benchmarkSpec{
		EndToEnd: []boundSpec{{Name: "wall_s", Better: "lower", Bound: &bound}},
		PerLayer: []boundSpec{{Name: "machine.sim_ops", Better: "lower"}},
	}
	run := func(id string, seed uint64, wall, ops, alloc float64, digest string) *result {
		return &result{
			Schema: schema, RunID: id, Workload: "w", Seed: seed, Mode: "timed",
			Digests: map[string]string{"fig2": digest},
			Metrics: metrics{
				{"wall_s", wall, "s"}, {"machine.sim_ops", ops, "count"}, {"runtime.alloc_gb", alloc, "GB"},
			},
		}
	}
	set := func(f func(i int) *result) []*result {
		var rs []*result
		for i := 0; i < 5; i++ {
			rs = append(rs, f(i))
		}
		return rs
	}
	parent := set(func(i int) *result { return run("a", uint64(i), 10+0.01*float64(i), 100, 5, "d") })
	for _, c := range []struct {
		name    string
		change  []*result
		bad     bool
		mention string
	}{
		{"identical", set(func(i int) *result { return run("b", uint64(i), 10+0.01*float64(i), 100, 5, "d") }), false, "identical"},
		{"alloc within 0.1%", set(func(i int) *result { return run("b", uint64(i), 10, 100, 5.004, "d") }), false, "identical"},
		{"slower", set(func(i int) *result { return run("b", uint64(i), 12, 100, 5, "d") }), true, "regressed"},
		{"sim ops moved", set(func(i int) *result { return run("b", uint64(i), 10, 101, 5, "d") }), true, "CHANGED machine.sim_ops"},
		{"alloc beyond 0.1%", set(func(i int) *result { return run("b", uint64(i), 10, 100, 5.1, "d") }), true, "CHANGED runtime.alloc_gb"},
		{"digest moved", set(func(i int) *result { return run("b", uint64(i), 10, 100, 5, "e") }), true, "CHANGED digest of fig2"},
		// Seed-dependent outputs are compared only between equal seeds.
		{"other seeds", set(func(i int) *result { return run("b", uint64(i+10), 10, 200, 5, "e") }), false, "0 workload/seed groups"},
	} {
		var out strings.Builder
		bad := compareSets(&out, spec, parent, c.change)
		if bad != c.bad || !strings.Contains(out.String(), c.mention) {
			t.Errorf("%s: bad = %v (want %v), output lacks %q:\n%s", c.name, bad, c.bad, c.mention, out.String())
		}
	}
}
