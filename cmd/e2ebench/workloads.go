package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"optanesim/internal/bench"
)

// workload is one named, fixed slice of the units `optbench -quick all`
// runs. Every unit is listed by the ID `optbench -progress` prints, so a
// renamed or deleted unit is a hard error instead of a silently smaller
// workload.
type workload struct {
	Name  string
	Units []string
	// Calib appends calib.Measure to the timed pass: the workload that
	// carries the calibration accuracy also pays for computing it.
	Calib bool
}

// workloads partitions the 66 units of `optbench -quick all`. The split
// follows which simulator layer dominates host time, so that a change to
// one layer has a workload that exercises it and one that bypasses it;
// README.md and BENCHMARK.json give each workload's reason.
var workloads = []workload{
	{
		Name: "read-sweeps",
		Units: []string{
			"fig2/G1", "fig2/G2", "fig4",
			"fig6/G1 none", "fig6/G1 hardware", "fig6/G1 adjacent", "fig6/G1 dcu",
			"fig6/G2 none", "fig6/G2 hardware", "fig6/G2 adjacent", "fig6/G2 dcu",
			"fig8/G1 pure-read", "fig8/G2 pure-read",
			"latency/G1", "latency/G2",
		},
	},
	{
		Name: "persist-chase",
		Units: []string{
			"fig8/G1 strict", "fig8/G1 relaxed",
			"fig8/G2 strict", "fig8/G2 relaxed",
		},
	},
	{
		Name: "write-sweeps",
		Units: []string{
			"fig3/G1", "fig3/G2",
			"fig7/G1 local PM", "fig7/G1 local DRAM", "fig7/G1 remote PM", "fig7/G1 remote DRAM",
			"fig7/G2 local PM", "fig7/G2 local DRAM", "fig7/G2 remote PM", "fig7/G2 remote DRAM",
			"fig8/G1 pure-write", "fig8/G2 pure-write",
			"fig13/G1", "fig13/G2",
			"fig14/G1", "fig14/G2",
			"bandwidth/G1", "bandwidth/G2",
			"sec33",
		},
	},
	{
		Name: "btree-insert",
		Units: []string{
			"fig12/G1", "fig12/G2",
		},
	},
	{
		Name: "pinned-mix",
		Units: []string{
			"table1",
			"fig10/PM", "fig10/DRAM", "fig10/PM 6-DIMM",
			"ablation",
			"ycsb/PM", "ycsb/DRAM",
			"indexes",
			"crashmatrix/btree", "crashmatrix/cceh", "crashmatrix/radix", "crashmatrix/kvstore",
			"replay/G1 cori", "replay/G2 cori", "replay/G1 ram", "replay/G2 ram",
			"faultmatrix/poison/btree", "faultmatrix/poison/cceh", "faultmatrix/poison/radix",
			"faultmatrix/poison/kvstore", "faultmatrix/control/unhardened-btree",
			"faultmatrix/thermal/seq-write", "faultmatrix/thermal/rand-read",
			"faultmatrix/stall/nt-store", "faultmatrix/media/wear-rw",
			"tenants/G1",
		},
		Calib: true,
	},
}

// goldenExperiments are the experiments whose -quick output is committed
// under internal/bench/testdata (the list TestGoldenQuickResults pins).
var goldenExperiments = []string{"fig2", "fig4", "table1", "replay", "faultmatrix", "tenants"}

// goldenDir is where the golden files live, relative to the repository
// root the harness runs from.
const goldenDir = "internal/bench/testdata"

// seededExperiments receive -seed as bench.Options.Seed. faultmatrix is
// left at its golden seeds: with other seeds its poison/kvstore cell can
// arm only lines the index never reads and fails as "injection
// ineffective" (seeds 5, 7, 9, 13 and 42 among others), a property of
// the experiment rather than of the code under measurement.
var seededExperiments = map[string]bool{"crashmatrix": true}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// experimentOf returns the registry name of a unit ID ("fig8/G1 strict"
// belongs to "fig8").
func experimentOf(id string) string {
	exp, _, _ := strings.Cut(id, "/")
	return exp
}

// plan is one pass's ready-to-run work: fresh units (a bench.Unit runs
// once), the goldens to check, and the registered units no workload
// lists.
type plan struct {
	units      []bench.Unit
	goldens    map[string][]byte
	unassigned []string
}

// setup resolves w against the experiment registry and loads the goldens
// of the experiments it contains. Every call builds fresh units; tel,
// when non-nil, becomes their bench.Options.Telemetry.
func setup(w workload, seed uint64, tel telemetryFactory) (*plan, error) {
	assigned := make(map[string]bool)
	for _, wl := range workloads {
		for _, id := range wl.Units {
			assigned[id] = true
		}
	}
	want := make(map[string]bool, len(w.Units))
	for _, id := range w.Units {
		want[id] = true
	}
	byID := make(map[string]bench.Unit, len(w.Units))
	expUnits := make(map[string]int)
	p := &plan{goldens: make(map[string][]byte)}
	for _, exp := range bench.ExperimentNames() {
		opts := bench.Options{Quick: true, Telemetry: tel}
		if seededExperiments[exp] {
			opts.Seed = seed
		}
		units, _ := bench.ExperimentUnits(exp, opts)
		expUnits[exp] = len(units)
		for _, u := range units {
			id := u.ID()
			if want[id] {
				byID[id] = u
			}
			if !assigned[id] {
				p.unassigned = append(p.unassigned, id)
			}
		}
	}
	for _, id := range w.Units {
		u, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("workload %s lists unit %q, which the experiment registry does not produce", w.Name, id)
		}
		p.units = append(p.units, u)
	}
	for _, exp := range goldenExperiments {
		n := w.experimentUnits(exp)
		if n == 0 {
			continue
		}
		if n != expUnits[exp] {
			return nil, fmt.Errorf("workload %s holds %d of golden experiment %s's %d units; a golden check needs all of them", w.Name, n, exp, expUnits[exp])
		}
		data, err := os.ReadFile(filepath.Join(goldenDir, exp+".quick.json"))
		if err != nil {
			return nil, fmt.Errorf("loading golden (run from the repository root): %w", err)
		}
		p.goldens[exp] = data
	}
	return p, nil
}

// experimentUnits counts the units of experiment exp that w lists.
func (w workload) experimentUnits(exp string) int {
	n := 0
	for _, id := range w.Units {
		if experimentOf(id) == exp {
			n++
		}
	}
	return n
}
