// Command optbench regenerates the tables and figures of "Characterizing
// the Performance of Intel Optane Persistent Memory" (EuroSys '22) on
// the optanesim simulator.
//
// Usage:
//
//	optbench [-quick] [-j N] [-json dir] [-plot] [-timeout D] [-keep-going]
//	         [-cpuprofile f] [-memprofile f] [-progress] [-seed N] [-fault SPEC]
//	         [-trace-out f] [-events-out f] [-sample-out f]
//	         [-breakdown] [-hist-out f]
//	         [-sample-every N] [-event-cap N] [-telemetry-addr a]
//	         <experiment>...
//
// where experiment is one of: fig2 fig3 fig4 fig6 fig7 fig8 table1
// fig10 fig12 fig13 fig14 ablation bandwidth ycsb sec33 latency indexes
// crashmatrix replay faultmatrix tenants all. -quick runs each experiment at
// reduced scale (useful for smoke tests); the default scale is what
// EXPERIMENTS.md records. The replay experiment runs the bundled
// external traces through the internal/replay frontend (see
// EXPERIMENTS.md, "Trace replay & calibration").
//
// -seed N overrides the sampling seeds of the injection matrices
// (crashmatrix, faultmatrix): unit i derives N+i, so a sampled failure
// is reproducible. -fault SPEC (see internal/fault.ParseSpec, e.g.
// 'poison=64,thermal=400000/200000/150') degrades the PM module of
// every system a timed experiment runs; faultmatrix builds its own
// per-cell injectors and tenants its own meter. After the run, one
// stderr line per requested -fault or telemetry sink names the
// experiments it did not reach: those with a unit that runs no timed
// system (crashmatrix, and faultmatrix's poison and control cells),
// plus faultmatrix and tenants for -fault. With -json, <dir>/run.json
// records the run's knobs and, under "unreached", the same lists.
//
// Independent experiment units (e.g. the two generations of fig2, the
// eight panels of fig8) execute concurrently on a pool of -j workers,
// each on its own simulator instance. Output order — and, with -json,
// the structured records written as <dir>/<experiment>.jsonl — is
// deterministic and byte-identical for every -j value; only the
// wall-clock lines differ.
//
// The telemetry flags record the simulator's introspection layer (see
// internal/telemetry): -trace-out exports a Chrome trace-event timeline
// loadable in Perfetto, -events-out and -sample-out write the raw event
// stream and gauge time-series as JSON lines, and -telemetry-addr serves
// live /metrics plus /debug/pprof while the sweep runs. -breakdown
// attributes every op's latency to a fixed component vocabulary
// (internal/telemetry's cycle-attribution layer) and prints a
// per-unit, per-tenant table of HDR-histogram quantiles under each
// unit's result; -hist-out writes the same histograms' summaries as
// JSON lines. All recorded output is deterministic across -j values;
// -progress lines (stderr, completion order) and the live endpoint are
// the only unordered output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"optanesim/internal/bench"
	"optanesim/internal/fault"
	"optanesim/internal/mem"
	"optanesim/internal/runner"
	"optanesim/internal/telemetry"
)

var (
	quick      = flag.Bool("quick", false, "run at reduced scale")
	doPlots    = flag.Bool("plot", false, "also render ASCII charts of the figures")
	jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "number of experiment units to run concurrently")
	jsonDir    = flag.String("json", "", "also write structured results as <dir>/<experiment>.jsonl")
	timeout    = flag.Duration("timeout", 0, "per-unit deadline (0 = none), e.g. 5m")
	keepGoing  = flag.Bool("keep-going", false, "run every unit even after one fails")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	seed       = flag.Uint64("seed", 0, "override the injection matrices' sampling seeds (unit i uses seed+i)")
	faultSpec  = flag.String("fault", "", "degrade every metered experiment system per this fault spec, e.g. 'poison=64,thermal=400000/200000/150'")
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	run, err := selectExperiments(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optbench: %v\n", err)
		usage()
		os.Exit(2)
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "optbench: %v\n", err)
			os.Exit(1)
		}
	}
	stopProfiles := startProfiles()
	defer stopProfiles()

	// Flatten every selected experiment's units into one task list so
	// the pool stays busy across experiment boundaries, remembering
	// which result slots belong to which experiment.
	opts := bench.Options{Quick: *quick, Telemetry: telemetryFactory(), Seed: *seed}
	if *faultSpec != "" {
		cfg, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "optbench: %v\n", err)
			os.Exit(2)
		}
		opts.Fault = &cfg
	}
	var tasks []runner.Task
	slots := make(map[string][]int, len(run))
	for _, name := range run {
		units, _ := bench.ExperimentUnits(name, opts)
		for _, u := range units {
			u := u
			slots[name] = append(slots[name], len(tasks))
			tasks = append(tasks, runner.Task{
				ID:  u.ID(),
				Run: func() (any, error) { return u.Run(), nil },
			})
		}
	}

	live, stopLive := startLive(*jobs, len(tasks))
	defer stopLive()

	runCfg := runner.Config{
		Workers:   *jobs,
		Timeout:   *timeout,
		KeepGoing: *keepGoing,
	}
	runnerHooks(&runCfg, live)

	start := time.Now()
	results := runner.RunConfig(tasks, runCfg)

	// Report in the deterministic submission order, not completion
	// order.
	failed := false
	var failures []string
	for _, name := range run {
		var unitResults []bench.UnitResult
		var expResults []runner.Result
		expFailed := false
		for _, i := range slots[name] {
			r := results[i]
			expResults = append(expResults, r)
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "optbench: %s: %v\n", r.ID, r.Err)
				failed, expFailed = true, true
				failures = append(failures, fmt.Sprintf("%s: %s", r.ID, firstLine(r.Err.Error())))
				continue
			}
			ur := r.Value.(bench.UnitResult)
			unitResults = append(unitResults, ur)
			fmt.Println(ur.Text)
			if *breakdown && ur.Telemetry != nil && ur.Telemetry.Breakdown != nil {
				ur.Telemetry.Breakdown.WriteTable(os.Stdout)
				fmt.Println()
			}
			if *doPlots {
				maybePlot(ur)
			}
		}
		// A partial record set would look complete on disk; write only
		// experiments whose every unit succeeded.
		if *jsonDir != "" && !expFailed {
			if err := writeJSONL(*jsonDir, name, unitResults); err != nil {
				fmt.Fprintf(os.Stderr, "optbench: %v\n", err)
				failed = true
			}
		}
		fmt.Printf("[%s completed in %v]\n\n", name, runner.Wall(expResults).Round(time.Millisecond))
	}
	if telemetryEnabled() {
		sinks := telemetry.Sinks{Trace: *traceOut, Events: *eventsOut, Samples: *samplesOut, Hists: *histOut}
		if err := sinks.Write(harvestRecordings(run, slots, results)...); err != nil {
			fmt.Fprintf(os.Stderr, "optbench: %v\n", err)
			failed = true
		}
	}
	flags := runWideFlags()
	missed := unreachedByFlag(flags, run, slots, results)
	reportUnreached(flags, missed)
	if *jsonDir != "" {
		if err := writeRunHeader(*jsonDir, run, missed); err != nil {
			fmt.Fprintf(os.Stderr, "optbench: %v\n", err)
			failed = true
		}
	}
	fmt.Printf("[total: %d experiments, %d units, -j %d, %v]\n",
		len(run), len(tasks), *jobs, time.Since(start).Round(time.Millisecond))
	if failed {
		// The typed-error summary classifies failures (panics, timeouts,
		// cancellations) and lets poison errors be counted as such.
		s := runner.Summarize(results)
		fmt.Fprintf(os.Stderr, "optbench: %s", s)
		if n := s.Count(mem.IsPoison); n > 0 {
			fmt.Fprintf(os.Stderr, " (%d poison errors)", n)
		}
		fmt.Fprintln(os.Stderr, ":")
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		if !*keepGoing {
			fmt.Fprintln(os.Stderr, "optbench: (units not yet started were canceled; use -keep-going to run all)")
		}
		stopProfiles() // os.Exit skips defers
		os.Exit(1)
	}
}

// selectExperiments resolves the experiment arguments to the run list:
// "all" selects every experiment in the paper's order, and a repeated
// name runs once, at its first position.
func selectExperiments(args []string) ([]string, error) {
	var run []string
	seen := make(map[string]bool, len(args))
	for _, a := range args {
		if a == "all" {
			return bench.ExperimentNames(), nil
		}
		if _, ok := bench.ExperimentUnits(a, bench.Options{}); !ok {
			return nil, fmt.Errorf("unknown experiment %q", a)
		}
		if !seen[a] {
			seen[a] = true
			run = append(run, a)
		}
	}
	return run, nil
}

// faultExempt lists the experiments that ignore -fault by design:
// faultmatrix cells build their own injectors, and tenants builds its
// own meter.
var faultExempt = map[string]bool{"faultmatrix": true, "tenants": true}

// unreached names, in run order, the experiments a run-wide request
// cannot have affected: those with a successful unit that ran no metered
// machine system (SimCycles == 0), plus the exempt ones.
func unreached(run []string, slots map[string][]int, results []runner.Result, exempt map[string]bool) []string {
	var out []string
	for _, name := range run {
		miss := exempt[name]
		for _, i := range slots[name] {
			if ur, ok := results[i].Value.(bench.UnitResult); ok && ur.SimCycles == 0 {
				miss = true
			}
		}
		if miss {
			out = append(out, name)
		}
	}
	return out
}

// runWideFlag is one run-wide knob: its flag name, whether the run
// requested it, and the experiments exempt from it by design.
type runWideFlag struct {
	name   string
	on     bool
	exempt map[string]bool
}

// runWideFlags lists the run-wide knobs — -fault and every telemetry
// sink — in report order.
func runWideFlags() []runWideFlag {
	return []runWideFlag{
		{"-fault", *faultSpec != "", faultExempt},
		{"-trace-out", *traceOut != "", nil},
		{"-events-out", *eventsOut != "", nil},
		{"-sample-out", *samplesOut != "", nil},
		{"-breakdown", *breakdown, nil},
		{"-hist-out", *histOut != "", nil},
	}
}

// unreachedByFlag maps each requested run-wide flag to the experiments
// it did not reach (empty, never nil, when it reached them all). It
// returns nil when no run-wide flag was requested.
func unreachedByFlag(flags []runWideFlag, run []string, slots map[string][]int, results []runner.Result) map[string][]string {
	var out map[string][]string
	for _, f := range flags {
		if !f.on {
			continue
		}
		if out == nil {
			out = make(map[string][]string)
		}
		out[f.name] = append([]string{}, unreached(run, slots, results, f.exempt)...)
	}
	return out
}

// reportUnreached prints one stderr line for each requested run-wide
// knob that left some experiment untouched, naming those experiments.
func reportUnreached(flags []runWideFlag, missed map[string][]string) {
	for _, f := range flags {
		if names := missed[f.name]; len(names) > 0 {
			fmt.Fprintf(os.Stderr, "optbench: %s did not reach %s\n", f.name, strings.Join(names, " "))
		}
	}
}

// startProfiles begins -cpuprofile collection and returns an idempotent
// stop function that finalizes both it and the -memprofile snapshot.
func startProfiles() func() {
	var cpuOut *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "optbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "optbench: %v\n", err)
			os.Exit(1)
		}
		cpuOut = f
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuOut != nil {
			pprof.StopCPUProfile()
			cpuOut.Close()
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "optbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the snapshot reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "optbench: %v\n", err)
			}
		}
	}
}

// firstLine truncates multi-line errors (panic stacks) for the summary.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// runRecord is a -json run's <dir>/run.json: the knobs that shape its
// records, so an archived result directory is reproducible from its
// header alone, plus what the run-wide knobs actually reached. Only
// simulation-relevant flags appear — never timestamps or -j, which
// cannot change a byte of the .jsonl files. The telemetry knobs —
// sample period, event-ring capacity, breakdown recording — shape the
// recorded telemetry sinks, so the header pins them too. Unreached
// holds, per requested run-wide flag, the experiments it did not reach
// (the run's "did not reach" stderr lines); it is absent when no
// run-wide flag was requested.
type runRecord struct {
	Quick       bool                `json:"quick"`
	Seed        uint64              `json:"seed"`
	Fault       string              `json:"fault,omitempty"`
	SampleEvery int64               `json:"sample_every"`
	EventCap    int                 `json:"event_cap"`
	Breakdown   bool                `json:"breakdown"`
	Experiments []string            `json:"experiments"`
	Unreached   map[string][]string `json:"unreached,omitempty"`
}

// writeRunHeader writes the run's record as <dir>/run.json.
func writeRunHeader(dir string, run []string, unreached map[string][]string) error {
	hdr := runRecord{*quick, *seed, *faultSpec, *sampleEvery, *eventCap, breakdownEnabled(), run, unreached}
	data, err := json.MarshalIndent(hdr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "run.json"), append(data, '\n'), 0o644)
}

// writeJSONL writes one experiment's structured records as JSON lines.
func writeJSONL(dir, name string, results []bench.UnitResult) error {
	data, err := bench.EncodeJSONL(results)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".jsonl"), data, 0o644)
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: optbench [-quick] [-j N] [-json dir] [-plot] [-timeout D] [-keep-going] [-cpuprofile f] [-memprofile f] [-progress] [-seed N] [-fault SPEC] [-trace-out f] [-events-out f] [-sample-out f] [-breakdown] [-hist-out f] [-sample-every N] [-event-cap N] [-telemetry-addr a] <experiment>...\nexperiments: %v all\n",
		bench.ExperimentNames())
}
