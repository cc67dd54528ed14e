package main

import (
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"testing"

	"optanesim/internal/bench"
	"optanesim/internal/runner"
	"optanesim/internal/sim"
)

func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
		err  bool
	}{
		{args: []string{"fig4"}, want: []string{"fig4"}},
		{args: []string{"fig4", "fig4"}, want: []string{"fig4"}},
		{args: []string{"fig7", "fig2", "fig7", "fig2", "fig3"}, want: []string{"fig7", "fig2", "fig3"}},
		{args: []string{"fig4", "all"}, want: bench.ExperimentNames()},
		{args: []string{"fig4", "nope"}, err: true},
	} {
		got, err := selectExperiments(tc.args)
		if (err != nil) != tc.err || !slices.Equal(got, tc.want) {
			t.Errorf("selectExperiments(%q) = %q, %v; want %q (error %v)", tc.args, got, err, tc.want, tc.err)
		}
	}
}

func TestUnreached(t *testing.T) {
	// unit builds a result slot: a completed unit with the given
	// simulated cycles, or a failed one when cycles < 0.
	unit := func(cycles int64) runner.Result {
		if cycles < 0 {
			return runner.Result{Err: errors.New("unit failed")}
		}
		return runner.Result{Value: bench.UnitResult{SimCycles: sim.Cycles(cycles)}}
	}
	for _, tc := range []struct {
		name   string
		run    []string
		cycles map[string][]int64
		exempt map[string]bool
		want   []string
	}{
		{"all metered", []string{"fig2", "fig3"}, map[string][]int64{"fig2": {5, 7}, "fig3": {1}}, nil, nil},
		{"unmetered units, in run order", []string{"latency", "fig2", "fig8"},
			map[string][]int64{"latency": {0}, "fig2": {5, 7}, "fig8": {0, 0}}, nil, []string{"latency", "fig8"}},
		{"one unmetered unit names its experiment", []string{"faultmatrix"},
			map[string][]int64{"faultmatrix": {0, 9, 9}}, nil, []string{"faultmatrix"}},
		{"failed units are not counted", []string{"fig2", "fig6"}, map[string][]int64{"fig2": {-1, 5}, "fig6": {-1}}, nil, nil},
		{"exempt experiments are named even when metered", []string{"fig7", "faultmatrix", "tenants", "latency"},
			map[string][]int64{"fig7": {3}, "faultmatrix": {9}, "tenants": {4}, "latency": {0}},
			faultExempt, []string{"faultmatrix", "tenants", "latency"}},
	} {
		var results []runner.Result
		slots := make(map[string][]int)
		for _, name := range tc.run {
			for _, c := range tc.cycles[name] {
				slots[name] = append(slots[name], len(results))
				results = append(results, unit(c))
			}
		}
		if got := unreached(tc.run, slots, results, tc.exempt); !slices.Equal(got, tc.want) {
			t.Errorf("%s: unreached = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestUnreachedByFlag(t *testing.T) {
	// fig2 and faultmatrix are metered; crashmatrix runs no timed system.
	run := []string{"fig2", "crashmatrix", "faultmatrix"}
	slots := map[string][]int{"fig2": {0}, "crashmatrix": {1}, "faultmatrix": {2}}
	results := []runner.Result{
		{Value: bench.UnitResult{SimCycles: 5}},
		{Value: bench.UnitResult{SimCycles: 0}},
		{Value: bench.UnitResult{SimCycles: 9}},
	}
	fault := runWideFlag{"-fault", true, faultExempt}
	events := runWideFlag{"-events-out", true, nil}
	off := runWideFlag{"-hist-out", false, nil}
	for _, tc := range []struct {
		name  string
		flags []runWideFlag
		run   []string
		want  map[string][]string
		json  string // the "unreached" member of run.json; "" when absent
	}{
		{"no run-wide flag requested: field omitted", []runWideFlag{off}, run, nil, ""},
		{"one flag", []runWideFlag{events}, run,
			map[string][]string{"-events-out": {"crashmatrix"}},
			`{"-events-out":["crashmatrix"]}`},
		{"exemptions are per flag", []runWideFlag{fault, events, off}, run,
			map[string][]string{"-fault": {"crashmatrix", "faultmatrix"}, "-events-out": {"crashmatrix"}},
			`{"-events-out":["crashmatrix"],"-fault":["crashmatrix","faultmatrix"]}`},
		{"a flag that reached everything records an empty list", []runWideFlag{events}, []string{"fig2"},
			map[string][]string{"-events-out": {}},
			`{"-events-out":[]}`},
	} {
		got := unreachedByFlag(tc.flags, tc.run, slots, results)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: unreachedByFlag = %q, want %q", tc.name, got, tc.want)
		}
		data, err := json.Marshal(runRecord{Unreached: got})
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(data, &fields); err != nil {
			t.Fatal(err)
		}
		if member := string(fields["unreached"]); member != tc.json {
			t.Errorf("%s: run.json unreached = %q, want %q", tc.name, member, tc.json)
		}
	}
}
