package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"optanesim/internal/bench"
	"optanesim/internal/machine"
	"optanesim/internal/runner"
	"optanesim/internal/sim"
	"optanesim/internal/telemetry"
)

var (
	traceOut      = flag.String("trace-out", "", "write a Chrome trace-event timeline of buffer/controller events to this file")
	eventsOut     = flag.String("events-out", "", "write the structured event stream as JSON lines to this file")
	samplesOut    = flag.String("sample-out", "", "write the gauge time-series (WPQ depth, buffer occupancy, RA/WA) as JSON lines to this file")
	sampleEvery   = flag.Int64("sample-every", int64(telemetry.DefaultSampleEvery), "simulated cycles between gauge samples")
	eventCap      = flag.Int("event-cap", telemetry.DefaultEventCap, "per-unit event ring capacity (most recent events kept)")
	telemetryAddr = flag.String("telemetry-addr", "", "serve live /metrics and /debug/pprof on this address (e.g. :9090) for the duration of the run")
	progress      = flag.Bool("progress", false, "print a per-unit completion line (unit, wall time, sim cycles) to stderr as units finish")
	breakdown     = flag.Bool("breakdown", false, "attribute every op's cycles to latency components and print a per-unit breakdown table")
	histOut       = flag.String("hist-out", "", "write the per-unit attribution histogram summaries as JSON lines to this file (implies -breakdown recording)")
)

// telemetryEnabled reports whether any per-unit recording sink was
// requested. The live endpoint and -progress work without recording.
func telemetryEnabled() bool {
	return *traceOut != "" || *eventsOut != "" || *samplesOut != "" ||
		*breakdown || *histOut != ""
}

// breakdownEnabled reports whether cycle attribution should record.
func breakdownEnabled() bool {
	return *breakdown || *histOut != ""
}

// telemetryFactory builds the per-unit Recorder factory handed to the
// bench layer, or nil when no recording sink is active so the simulator
// hot paths keep their nil probes.
func telemetryFactory() func(unit string) *telemetry.Recorder {
	if !telemetryEnabled() {
		return nil
	}
	cfg := telemetry.Config{
		EventCap:    *eventCap,
		SampleEvery: sim.Cycles(*sampleEvery),
		Breakdown:   breakdownEnabled(),
	}
	return func(unit string) *telemetry.Recorder { return telemetry.NewRecorder(unit, cfg) }
}

// startLive binds the -telemetry-addr endpoint, if requested. It returns
// the Live view (nil when disabled) and a stop function.
func startLive(workers, totalUnits int) (*telemetry.Live, func()) {
	if *telemetryAddr == "" {
		return nil, func() {}
	}
	live := telemetry.NewLive(workers, totalUnits, machine.GlobalStats)
	addr, err := live.Start(*telemetryAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optbench: telemetry server: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "optbench: serving telemetry on http://%s/metrics (pprof at /debug/pprof/)\n", addr)
	return live, live.Stop
}

// runnerHooks wires -progress reporting and the live endpoint into the
// worker pool. Progress lines go to stderr in completion order; stdout
// stays byte-identical with and without them.
func runnerHooks(cfg *runner.Config, live *telemetry.Live) {
	if live == nil && !*progress {
		return
	}
	cfg.OnTaskStart = func(id string) {
		if live != nil {
			live.UnitStarted(id)
		}
	}
	cfg.OnTaskDone = func(r runner.Result) {
		var cycles int64
		if ur, ok := r.Value.(bench.UnitResult); ok {
			cycles = int64(ur.SimCycles)
			if live != nil && ur.Telemetry != nil {
				live.ObserveBreakdown(ur.Telemetry.Breakdown)
			}
		}
		if live != nil {
			live.UnitDone(r.ID, r.Elapsed(), cycles, r.Err != nil)
		}
		if *progress {
			status := "done"
			if r.Err != nil {
				status = "FAIL"
			}
			fmt.Fprintf(os.Stderr, "optbench: %s %-24s %12v  %14d sim cycles\n",
				status, r.ID, r.Elapsed().Round(time.Millisecond), cycles)
		}
	}
}

// harvestRecordings collects the units' frozen recordings in submission
// order — the same deterministic order as every other output.
func harvestRecordings(run []string, slots map[string][]int, results []runner.Result) []*telemetry.Recording {
	var recs []*telemetry.Recording
	for _, name := range run {
		for _, i := range slots[name] {
			r := results[i]
			if r.Err != nil {
				continue
			}
			if ur, ok := r.Value.(bench.UnitResult); ok && ur.Telemetry != nil {
				recs = append(recs, ur.Telemetry)
			}
		}
	}
	return recs
}
