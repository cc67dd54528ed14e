package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []boundSpec `json:"per_layer"`
}

type boundSpec struct {
	Name   string   `json:"name"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// exactTolerance is the relative difference allowed between two sets in
// a deterministic metric: 0 (bit-identical) unless listed here.
var exactTolerance = map[string]float64{"runtime.alloc_gb": 0.001}

// deterministic reports whether a metric must repeat exactly for one
// seed: simulated work, attributed cycles and calibration error depend
// only on the simulator's code.
func deterministic(name string) bool {
	if _, ok := exactTolerance[name]; ok {
		return true
	}
	return strings.HasPrefix(name, "machine.sim_") || strings.HasPrefix(name, "simcyc.") ||
		strings.HasPrefix(name, "calib_err_")
}

// verdict labels one (metric, workload) pair of sets, parent a against
// change b, by the rules of the choosing-metrics guide: improved when
// the change wins at least 9 in 10 pairs and the medians differ by more
// than the parent's quartile spread; regressed when b's median is worse
// than a's by more than the bound; unresolved when either side's
// quartile spread exceeds the bound, unless every run of b beats every
// run of a; unchanged otherwise. Pairs are runs in the order they ran.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	ma, mb := median(a), median(b)
	qa, qb := quartiles(a), quartiles(b)
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && better(mb, ma) && math.Abs(mb-ma) > qa[2]-qa[0] {
		return "improved"
	}
	worse := relChange(ma, mb)
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return "regressed"
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	if (relSpread(qa, ma) > bound || relSpread(qb, mb) > bound) && !allBetter {
		return "unresolved"
	}
	return "unchanged"
}

// relSpread is the quartile spread as a share of the median.
func relSpread(q [3]float64, med float64) float64 {
	if med == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(med)
}

// relChange is (b-a)/a, and ±Inf or 0 when a is 0.
func relChange(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Copysign(math.Inf(1), b)
	}
	return (b - a) / math.Abs(a)
}

// quartiles returns the three cut points of v as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method).
func quartiles(v []float64) [3]float64 {
	d := slices.Clone(v)
	sort.Float64s(d)
	var q [3]float64
	switch len(d) {
	case 0:
		return q
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	n, m := 4, len(d)+1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(d)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(float64(n)-delta) + d[j]*delta) / float64(n)
	}
	return q
}

// readResults loads every results JSON in dir, oldest run first.
func readResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if json.Unmarshal(data, &r) != nil || r.Schema != schema {
			continue // spans and other files
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no %s results", dir, schema)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RunID < out[j].RunID })
	return out, nil
}

func (r *result) metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// runCompare prints the comparison of result sets aDir (parent) and bDir
// (change) and reports whether anything regressed or a deterministic
// output changed.
func runCompare(w io.Writer, specPath, aDir, bDir string) (bool, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readResults(aDir)
	if err != nil {
		return false, err
	}
	b, err := readResults(bDir)
	if err != nil {
		return false, err
	}
	return compareSets(w, spec, a, b), nil
}

// compareSets prints one row per (metric, workload) and the
// deterministic-output check; it returns true when a bounded metric
// regressed or a deterministic metric or digest changed.
func compareSets(w io.Writer, spec benchmarkSpec, a, b []*result) bool {
	bad := false
	var wls []string
	for _, r := range append(slices.Clone(a), b...) {
		if !slices.Contains(wls, r.Workload) {
			wls = append(wls, r.Workload)
		}
	}
	// End-to-end metrics come from timed runs; per-layer metrics from
	// every run that reports them.
	values := func(rs []*result, wl, name string, timedOnly bool) []float64 {
		var v []float64
		for _, r := range rs {
			if r.Workload != wl || (timedOnly && r.Mode != "timed") {
				continue
			}
			if x, ok := r.metric(name); ok {
				v = append(v, x)
			}
		}
		return v
	}
	fmt.Fprintf(w, "%-34s %-14s %-34s %-34s %9s %6s  %s\n", "metric", "workload", "A median [q1 q3] n", "B median [q1 q3] n", "change", "bound", "verdict")
	row := func(s boundSpec, timedOnly bool) {
		for _, wl := range wls {
			va, vb := values(a, wl, s.Name, timedOnly), values(b, wl, s.Name, timedOnly)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			label, bound := "-", "-"
			switch {
			case deterministic(s.Name):
				label = "exact, see below"
			case s.Bound != nil:
				label = verdict(va, vb, s.Better == "higher", *s.Bound)
				bound = fmt.Sprintf("%.3g", *s.Bound)
				bad = bad || label == "regressed"
			}
			fmt.Fprintf(w, "%-34s %-14s %-34s %-34s %+8.2f%% %6s  %s\n", s.Name, wl,
				describe(va), describe(vb), 100*relChange(ma, mb), bound, label)
		}
	}
	for _, s := range spec.EndToEnd {
		row(s, true)
	}
	for _, s := range spec.PerLayer {
		row(s, false)
	}
	if !checkExact(w, a, b) {
		bad = true
	}
	return bad
}

func describe(v []float64) string {
	q := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", median(v), q[0], q[2], len(v))
}

// checkExact compares every deterministic metric and every experiment
// digest between runs of the same workload and seed, on both sides and
// within each. It prints each difference and reports whether all held.
func checkExact(w io.Writer, a, b []*result) bool {
	type key struct {
		wl   string
		seed uint64
	}
	groups := make(map[key][2][]*result)
	for side, rs := range [2][]*result{a, b} {
		for _, r := range rs {
			k := key{r.Workload, r.Seed}
			g := groups[k]
			g[side] = append(g[side], r)
			groups[k] = g
		}
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].wl != keys[j].wl {
			return keys[i].wl < keys[j].wl
		}
		return keys[i].seed < keys[j].seed
	})
	ok, compared := true, 0
	for _, k := range keys {
		g := groups[k]
		all := append(slices.Clone(g[0]), g[1]...)
		if len(g[0]) > 0 && len(g[1]) > 0 {
			compared++
		}
		names := map[string]bool{}
		for _, r := range all {
			for _, m := range r.Metrics {
				if deterministic(m.Name) {
					names[m.Name] = true
				}
			}
		}
		for _, name := range sortedKeys(names) {
			var ref float64
			have := false
			for _, r := range all {
				x, found := r.metric(name)
				if !found {
					continue
				}
				if !have {
					ref, have = x, true
					continue
				}
				if math.Abs(relChange(ref, x)) > exactTolerance[name] {
					fmt.Fprintf(w, "CHANGED %s on %s seed %d: %v vs %v (run %s)\n", name, k.wl, k.seed, ref, x, r.RunID)
					ok = false
					break
				}
			}
		}
		exps := map[string]bool{}
		for _, r := range all {
			for exp := range r.Digests {
				exps[exp] = true
			}
		}
		for _, exp := range sortedKeys(exps) {
			ref := ""
			for _, r := range all {
				d, found := r.Digests[exp]
				if !found {
					continue
				}
				if ref == "" {
					ref = d
				} else if d != ref {
					fmt.Fprintf(w, "CHANGED digest of %s on %s seed %d (run %s)\n", exp, k.wl, k.seed, r.RunID)
					ok = false
					break
				}
			}
		}
	}
	if ok {
		fmt.Fprintf(w, "deterministic metrics and digests identical (%d workload/seed groups on both sides)\n", compared)
	}
	return ok
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
