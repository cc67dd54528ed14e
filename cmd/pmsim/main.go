// Command pmsim runs a workload script (see internal/script for the
// tiny language) on the simulated Optane testbed and prints per-thread
// latency plus a full activity report.
//
// Usage:
//
//	pmsim [-trace-out f] [-events-out f] [-sample-out f] [-sample-every N] workload.pmsim
//	pmsim -            # read the script from stdin
//
// The telemetry flags record the run's introspection layer (see
// internal/telemetry), for script and replay runs alike: -trace-out
// writes a Chrome trace-event timeline (loadable in Perfetto),
// -events-out the raw event stream and -sample-out the gauge
// time-series, both as JSON lines.
//
// Example script:
//
//	gen g1
//	region store pm 64M
//	thread writer
//	  loop 1000
//	    loaddep store rand
//	    store store last
//	    clwb store last
//	    sfence
//	  end
//	end
//
// With -replay, pmsim skips the script engine and replays an external
// memory-access trace (see internal/replay for the Cori- and
// Ramulator-style line formats) on the testbed:
//
//	pmsim -replay trace.cori -gen g1 -threads 2 -passes 3
//	pmsim -replay - -format ram -lenient   # trace from stdin
//
// Script and replay runs accept -fault SPEC to degrade the simulated
// module (media UEs, thermal throttling, controller stalls — see
// internal/fault), e.g.:
//
//	pmsim -fault 'poison=64,thermal=400000/200000/150' workload.pmsim
//	pmsim -replay trace.cori -fault 'stall=200000/40000,seed=7'
//
// The crash- and fault-injection matrices run as optbench experiments:
// optbench crashmatrix, optbench faultmatrix.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"optanesim/internal/fault"
	"optanesim/internal/machine"
	"optanesim/internal/replay"
	"optanesim/internal/script"
	"optanesim/internal/sim"
	"optanesim/internal/telemetry"
)

var (
	faultSpec   = flag.String("fault", "", "degrade the PM module per this fault spec, e.g. 'poison=64,thermal=400000/200000/150,stall=200000/40000,seed=7'")
	traceOut    = flag.String("trace-out", "", "write a Chrome trace-event timeline of the run to this file")
	eventsOut   = flag.String("events-out", "", "write the structured event stream as JSON lines to this file")
	samplesOut  = flag.String("sample-out", "", "write the gauge time-series as JSON lines to this file")
	sampleEvery = flag.Int64("sample-every", int64(telemetry.DefaultSampleEvery), "simulated cycles between gauge samples")

	replayFile   = flag.String("replay", "", "replay this memory-access trace file ('-' for stdin) instead of running a script")
	gen          = flag.String("gen", "g1", "with -replay: testbed generation, g1 or g2")
	replayFormat = flag.String("format", "auto", "with -replay: trace line format, auto, cori or ram")
	threads      = flag.Int("threads", 1, "with -replay: simulated threads the trace ops are assigned to")
	passes       = flag.Int("passes", 1, "with -replay: times each thread replays its op stream")
	assign       = flag.String("assign", "trace", "with -replay: thread assignment policy, trace, addr or rr")
	lenient      = flag.Bool("lenient", false, "with -replay: skip malformed trace lines instead of failing")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pmsim <script.pmsim | -> | pmsim -replay <trace | ->")
	}
	flag.Parse()
	if *replayFile != "" {
		os.Exit(runReplay())
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	var src []byte
	var err error
	if flag.Arg(0) == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmsim:", err)
		os.Exit(1)
	}
	prog, err := script.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmsim:", err)
		os.Exit(1)
	}
	name := flag.Arg(0)
	if name == "-" {
		name = "stdin"
	}
	m, err := newMeter(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmsim:", err)
		os.Exit(1)
	}
	res := script.Run(prog, m)
	if err := writeTelemetry(m.Rec); err != nil {
		fmt.Fprintln(os.Stderr, "pmsim:", err)
		os.Exit(1)
	}
	fmt.Printf("simulated %d cycles\n\n", res.EndCycles)
	for _, t := range res.Threads {
		fmt.Printf("thread %-12s %10d ops  %12d cycles  (%.1f cycles/op)\n",
			t.Name, t.Ops, t.Cycles, float64(t.Cycles)/float64(t.Ops))
	}
	fmt.Println()
	fmt.Print(res.Report)
	printFaultStats(m.Inj)
}

// newMeter builds the meter both modes run under: a recorder named
// after the run's input when a telemetry flag is set, and the -fault
// injector when that flag is set.
func newMeter(name string) (*machine.Meter, error) {
	m := new(machine.Meter)
	if *traceOut != "" || *eventsOut != "" || *samplesOut != "" {
		m.Rec = telemetry.NewRecorder(name, telemetry.Config{SampleEvery: sim.Cycles(*sampleEvery)})
	}
	if *faultSpec != "" {
		cfg, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			return nil, err
		}
		m.Inj = fault.New(cfg)
	}
	return m, nil
}

// printFaultStats appends the injector's accounting to a run's report.
func printFaultStats(inj *fault.Injector) {
	if inj == nil {
		return
	}
	st := inj.Stats()
	fmt.Printf("\nfaults (%s):\n", inj)
	fmt.Printf("  poison: %d armed, %d media reads hit, %d checked hits, %d unchecked hits, %d scrubbed\n",
		st.PoisonArmed, st.MediaPoisonReads, st.PoisonHits, st.UnreportedHits, st.Scrubbed)
	fmt.Printf("  thermal: %d ops derated (+%d cycles)\n", st.ThrottledOps, st.ThrottleExtraCycles)
	fmt.Printf("  stalls: %d writes paused (%d cycles)\n", st.Stalls, st.StallCycles)
}

// writeTelemetry exports the run's recording to every requested sink;
// it does nothing when the run recorded nothing.
func writeTelemetry(r *telemetry.Recorder) error {
	if r == nil {
		return nil
	}
	rec := r.Snapshot()
	writeTo := func(path string, write func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if *traceOut != "" {
		if err := writeTo(*traceOut, func(f *os.File) error {
			return telemetry.WriteChromeTrace(f, rec)
		}); err != nil {
			return err
		}
	}
	if *eventsOut != "" {
		if err := writeTo(*eventsOut, func(f *os.File) error {
			return telemetry.WriteEventsJSONL(f, rec)
		}); err != nil {
			return err
		}
	}
	if *samplesOut != "" {
		if err := writeTo(*samplesOut, func(f *os.File) error {
			return telemetry.WriteSamplesJSONL(f, rec)
		}); err != nil {
			return err
		}
	}
	return nil
}

// runReplay parses the -replay trace and executes it on the testbed,
// printing per-thread stats and the traffic counters.
func runReplay() int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "pmsim:", err)
		return 1
	}
	format, err := replay.ParseFormat(*replayFormat)
	if err != nil {
		return fail(err)
	}
	pol, err := replay.ParseAssign(*assign)
	if err != nil {
		return fail(err)
	}
	var cfg machine.Config
	switch *gen {
	case "g1":
		cfg = machine.G1Config(*threads)
	case "g2":
		cfg = machine.G2Config(*threads)
	default:
		return fail(fmt.Errorf("-gen must be g1 or g2, got %q", *gen))
	}

	in := os.Stdin
	name := "stdin"
	if *replayFile != "-" {
		f, err := os.Open(*replayFile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		in, name = f, *replayFile
	}
	ops, stats, err := replay.ReadAll(in, replay.Options{Format: format, Strict: !*lenient})
	if err != nil {
		return fail(err)
	}
	if len(ops) == 0 {
		return fail(fmt.Errorf("%s: trace has no operations", name))
	}

	m, err := newMeter(name)
	if err != nil {
		return fail(err)
	}
	res := replay.Exec(m, cfg, ops, replay.ExecOptions{
		Threads: *threads,
		Passes:  *passes,
		Assign:  pol,
	})
	if err := writeTelemetry(m.Rec); err != nil {
		return fail(err)
	}
	fmt.Printf("replayed %s: %d ops (%s format, %d lines, %d skipped), %d machine ops over %d thread(s), %d pass(es)\n",
		name, stats.Ops, stats.Format, stats.Lines, stats.Skipped, res.Ops, *threads, *passes)
	fmt.Printf("simulated %d cycles\n\n", res.EndCycles)
	for _, t := range res.Threads {
		cpo := 0.0
		if t.Ops > 0 {
			cpo = float64(t.Cycles) / float64(t.Ops)
		}
		fmt.Printf("thread %-12s %10d ops  %12d cycles  (%.1f cycles/op)\n", t.Name, t.Ops, t.Cycles, cpo)
	}
	fmt.Println()
	fmt.Println(res.PM.String())
	printFaultStats(m.Inj)
	return 0
}
