package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"optanesim/internal/bench"
	"optanesim/internal/calib"
	"optanesim/internal/machine"
	"optanesim/internal/runner"
)

// unitTimeout bounds one unit; a timeout counts as a failure.
const unitTimeout = 5 * time.Minute

// counters is one reading of every counter the harness samples from
// outside the simulator.
type counters struct {
	at                time.Time
	cpu               time.Duration // user + system, whole process
	simOps, simCycles uint64
	mem               runtime.MemStats
}

func readCounters() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	c.simOps, c.simCycles = machine.GlobalStats()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.at = time.Now()
	return c
}

// pass is one closed-loop run over a workload's units.
type pass struct {
	setup             time.Duration
	wall, cpu         time.Duration
	simOps, simCycles uint64
	allocBytes        uint64
	mallocs           uint64
	gcCycles          uint32
	gcPause           time.Duration
	results           []runner.Result
	calib             *calib.Report // set when the pass ran calib.Measure
	calibErr          error
	calibWall         time.Duration
}

// runPass sets up a fresh plan and runs it with one unit in flight:
// runner.RunConfig with a single worker starts the next unit only when
// the previous one returned. Workloads with Calib run calib.Measure
// inside the timed interval. tr, when non-nil, records the setup and a
// span per unit.
func runPass(w workload, seed uint64, tel telemetryFactory, only map[string]bool, tr *tracer) (*pass, *plan, error) {
	debug.FreeOSMemory() // every pass starts from a returned heap, like a fresh process
	sp := tr.begin("setup")
	t0 := time.Now()
	p, err := setup(w, seed, tel)
	setupDur := time.Since(t0)
	tr.end(sp, nil)
	if err != nil {
		return nil, nil, err
	}
	if only != nil {
		kept := p.units[:0]
		for _, u := range p.units {
			if only[u.ID()] {
				kept = append(kept, u)
			}
		}
		p.units = kept
	}
	tasks := make([]runner.Task, len(p.units))
	for i, u := range p.units {
		tasks[i] = runner.Task{ID: u.ID(), Run: func() (any, error) { return u.Run(), nil }}
	}
	cfg := runner.Config{Workers: 1, KeepGoing: true, Timeout: unitTimeout}
	if tr != nil {
		var start counters
		cfg.OnTaskStart = func(string) { start = readCounters() }
		cfg.OnTaskDone = func(r runner.Result) {
			end := readCounters()
			tr.add("unit:"+r.ID, r.Start, r.End, map[string]any{
				"sim_ops":     end.simOps - start.simOps,
				"sim_cycles":  end.simCycles - start.simCycles,
				"alloc_bytes": end.mem.TotalAlloc - start.mem.TotalAlloc,
			})
		}
	}

	before := readCounters()
	ps := &pass{setup: setupDur, results: runner.RunConfig(tasks, cfg)}
	if w.Calib && only == nil {
		ps.calib, ps.calibWall, ps.calibErr = measureCalib(tr)
	}
	after := readCounters()

	ps.wall = after.at.Sub(before.at)
	ps.cpu = after.cpu - before.cpu
	ps.simOps = after.simOps - before.simOps
	ps.simCycles = after.simCycles - before.simCycles
	ps.allocBytes = after.mem.TotalAlloc - before.mem.TotalAlloc
	ps.mallocs = after.mem.Mallocs - before.mem.Mallocs
	ps.gcCycles = after.mem.NumGC - before.mem.NumGC
	ps.gcPause = time.Duration(after.mem.PauseTotalNs - before.mem.PauseTotalNs)
	return ps, p, nil
}

// measureCalib runs the calibration suite and builds its error report,
// converting a panic into an error so it counts as a failure.
func measureCalib(tr *tracer) (rep *calib.Report, wall time.Duration, err error) {
	sp := tr.begin("calib.Measure")
	t0 := time.Now()
	defer func() {
		wall = time.Since(t0)
		tr.end(sp, nil)
		if p := recover(); p != nil {
			err = fmt.Errorf("calib.Measure panicked: %v", p)
		}
	}()
	r := calib.BuildReport(calib.Measure())
	return &r, 0, nil
}

// unitResult returns r's bench.UnitResult, or false for a failed unit.
func unitResult(r runner.Result) (bench.UnitResult, bool) {
	ur, ok := r.Value.(bench.UnitResult)
	return ur, ok && r.Err == nil
}

// unitDigests hashes every successful unit's JSON record, keyed by unit
// ID, so passes can be compared unit by unit.
func unitDigests(results []runner.Result) map[string]string {
	out := make(map[string]string, len(results))
	for _, r := range results {
		ur, ok := unitResult(r)
		if !ok {
			continue
		}
		data, err := bench.EncodeJSONL([]bench.UnitResult{ur})
		if err != nil {
			continue
		}
		out[r.ID] = sha256Hex(data)
	}
	return out
}

// experimentDigests hashes each experiment's bench.EncodeJSONL bytes over
// the units the workload runs, in workload order. An experiment with a
// failed unit has no digest.
func experimentDigests(results []runner.Result) map[string]string {
	byExp, failed := groupByExperiment(results)
	out := make(map[string]string, len(byExp))
	for exp, urs := range byExp {
		if failed[exp] {
			continue
		}
		data, err := bench.EncodeJSONL(urs)
		if err != nil {
			continue
		}
		out[exp] = sha256Hex(data)
	}
	return out
}

func groupByExperiment(results []runner.Result) (map[string][]bench.UnitResult, map[string]bool) {
	byExp := make(map[string][]bench.UnitResult)
	failed := make(map[string]bool)
	for _, r := range results {
		exp := experimentOf(r.ID)
		ur, ok := unitResult(r)
		if !ok {
			failed[exp] = true
			continue
		}
		byExp[exp] = append(byExp[exp], ur)
	}
	return byExp, failed
}

// checkGoldens byte-compares each golden experiment's results, encoded
// exactly as TestGoldenQuickResults encodes them, against its golden
// file. It returns one message per mismatch.
func checkGoldens(p *plan, results []runner.Result) []string {
	byExp, failed := groupByExperiment(results)
	var bad []string
	for _, exp := range goldenExperiments {
		want, ok := p.goldens[exp]
		if !ok {
			continue
		}
		if failed[exp] {
			bad = append(bad, fmt.Sprintf("golden %s: a unit failed, nothing to compare", exp))
			continue
		}
		got, err := bench.EncodeIndentedJSON(byExp[exp])
		if err != nil {
			bad = append(bad, fmt.Sprintf("golden %s: encoding: %v", exp, err))
			continue
		}
		if !bytes.Equal(got, want) {
			bad = append(bad, fmt.Sprintf("golden %s: output differs from %s/%s.quick.json", exp, goldenDir, exp))
		}
	}
	return bad
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// marshalLine renders v as one line of JSON.
func marshalLine(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, slices and numbers reach here
	}
	return string(data)
}
