// Command e2ebench is the end-to-end benchmark of optanesim: it runs one
// named slice of the `optbench -quick all` suite the way users run it
// (one unit in flight, default options), checks the outputs, and prints
// every metric as a `name value unit` line followed by a one-line JSON
// summary. Run it from the repository root:
//
//	sh cmd/e2ebench/run.sh -workload read-sweeps -seconds 20
//	sh cmd/e2ebench/run.sh -workload btree-insert -trace 1
//	sh cmd/e2ebench/run.sh -workload pinned-mix -attr
//	sh cmd/e2ebench/run.sh -compare .bench_build/a .bench_build/b
//
// The timed run (-trace 0) repeats the workload's pass while the next
// one is expected to end within -seconds, and reports medians. The traced run (-trace 1) adds one
// pass under the CPU profiler with in-memory spans, folded into host
// seconds per simulator layer, and an attribution pass (as -attr alone
// does) that sums the simulated cycles of every latency component over
// the metered units. README.md lists the workloads and metrics.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// endToEnd are the metrics a user of the simulator sees; the timed
// run's summary line carries exactly these. perLayer are the traced
// run's. Host-time layers that are absent from some workload (dram,
// index, crash, ...) read 0 on every run there; they are printed and
// recorded but left out of the summary line.
var (
	endToEnd = []string{
		"wall_s", "cpu_s", "setup_s", "peak_rss_mb",
		"calib_err_izraelevitz19_pct", "calib_err_hirofuchi20_pct",
	}
	perLayer = append([]string{
		"machine.sim_ops", "machine.sim_cycles", "machine.host_ns_per_sim_op",
		"runtime.alloc_gb", "runtime.mallocs_m", "runtime.gc_cycles", "runtime.gc_pause_ms",
		"bench.units", "bench.unit_p50_s", "bench.unit_max_s", "bench.metered_units",
		"calib.measure_s",
		"host.cache_s", "host.prefetch_s", "host.imc_s", "host.optane_s", "host.machine_s",
		"host.pmem_s", "host.rt_alloc_s", "host.rt_sched_s", "host.total_s",
		"trace.samples", "trace.overhead_frac",
	}, simcycNames()...)
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: read-sweeps, persist-chase, write-sweeps, btree-insert or pinned-mix")
	seed := flag.Uint64("seed", 0, "seed of the seeded experiments (crashmatrix); 0 is the golden configuration")
	seconds := flag.Int("seconds", 20, "repeat passes while the next is expected to end within this many seconds (at least one pass)")
	traceMode := flag.Int("trace", 0, "1: traced run (CPU profile, spans, attribution); 0: timed run")
	attr := flag.Bool("attr", false, "also run the attribution pass over the metered units")
	outDir := flag.String("out", ".bench_build/results", "directory for the results JSON, spans and CPU profile")
	compare := flag.Bool("compare", false, "compare two directories of results: e2ebench -compare A/ B/")
	benchFile := flag.String("benchmark", "BENCHMARK.json", "with -compare: file holding the metric bounds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "e2ebench: -compare needs two result directories")
			os.Exit(2)
		}
		regressed, err := runCompare(os.Stdout, *benchFile, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || (*traceMode != 0 && *traceMode != 1) || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	w, err := findWorkload(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traceMode == 1, *attr || *traceMode == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	for _, m := range res.Metrics {
		fmt.Printf("%s %s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "e2ebench: FAIL", f)
	}
	want := endToEnd
	if *traceMode == 1 {
		want = perLayer
	}
	fmt.Println(marshalLine(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics.pick(want),
	}))
	if res.Failed != 0 {
		os.Exit(1)
	}
}

// result is one run's record, written as the results JSON.
type result struct {
	Schema     string            `json:"schema"`
	RunID      string            `json:"run_id"`
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Mode       string            `json:"mode"`
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"num_cpu"`
	MaxProcs   int               `json:"gomaxprocs"`
	Passes     int               `json:"passes"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	Digests    map[string]string `json:"digests"`
	Metered    []string          `json:"metered_units"`
	Unassigned []string          `json:"unassigned_units,omitempty"`
	Units      []unitRecord      `json:"units"`
	Metrics    metrics           `json:"metrics"`
	Files      []string          `json:"files,omitempty"`
}

type unitRecord struct {
	ID        string    `json:"id"`
	WallS     []float64 `json:"wall_s"`
	SimCycles int64     `json:"sim_cycles"`
}

const schema = "e2ebench/1"

// run executes one benchmark run and writes its results JSON.
func run(w workload, seed uint64, budget time.Duration, traced, attributed bool, outDir string) (*result, error) {
	t0 := time.Now()
	runID := fmt.Sprintf("%s-%d", t0.UTC().Format("20060102T150405.000000000"), os.Getpid())
	res := &result{
		Schema: schema, RunID: runID, Workload: w.Name, Seed: seed, Mode: "timed",
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), MaxProcs: runtime.GOMAXPROCS(0),
	}
	if traced {
		res.Mode = "trace"
	} else if attributed {
		res.Mode = "attr"
	}
	// Set-up is timed several times and reported as a median. The host
	// runs in slow and fast phases lasting seconds, so the samples come in
	// batches spread over the run: one before the first pass and one after
	// every pass, besides each pass's own set-up. Each batch starts with
	// the previous pass's garbage collected and returned, so no collection
	// runs beside it.
	const setupBatch = 10
	var setups []time.Duration
	sampleSetups := func() error {
		debug.FreeOSMemory()
		for i := 0; i < setupBatch; i++ {
			s := time.Now()
			if _, err := setup(w, seed, nil); err != nil {
				return err
			}
			setups = append(setups, time.Since(s))
		}
		return nil
	}
	if err := sampleSetups(); err != nil {
		return nil, err
	}

	// Timed passes, tracing off: passes continue while the next one is
	// expected to end within the budget, so a run measures for about
	// -seconds and always at least one pass.
	var passes []*pass
	var first *plan
	start := time.Now()
	for {
		ps, p, err := runPass(w, seed, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = p
		}
		passes = append(passes, ps)
		setups = append(setups, ps.setup)
		if err := sampleSetups(); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(len(passes)) > budget {
			break
		}
	}
	res.Passes = len(passes)
	res.Unassigned = first.unassigned
	ref := passes[0]

	var tr *tracer
	var traced1 *pass
	var profile []byte
	if traced {
		tr = newTracer(runID, t0)
		debug.FreeOSMemory() // keep the timed passes' garbage out of the profile
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		ps, _, err := runPass(w, seed, nil, nil, tr)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		traced1, profile = ps, buf.Bytes()
	}

	metered := make(map[string]bool)
	for _, r := range ref.results {
		if ur, ok := unitResult(r); ok && ur.SimCycles > 0 {
			metered[r.ID] = true
			res.Metered = append(res.Metered, r.ID)
		}
	}
	var attrPass *pass
	if attributed {
		ps, _, err := runPass(w, seed, breakdownOnly, metered, nil)
		if err != nil {
			return nil, err
		}
		attrPass = ps
	}

	vs := tr.begin("verify")
	all := slices.Clone(passes)
	if traced1 != nil {
		all = append(all, traced1)
	}
	if attrPass != nil {
		all = append(all, attrPass)
	}
	res.verify(all, attrPass, first)
	calibRep, calibWall, calibErr := ref.calib, ref.calibWall, ref.calibErr
	if !w.Calib {
		calibRep, calibWall, calibErr = measureCalib(tr)
		res.Attempted++
		if calibErr != nil {
			res.fail("%v", calibErr)
		}
	}
	tr.end(vs, nil)

	// Metrics. Times are medians over the timed passes.
	ms := &res.Metrics
	med := func(f func(*pass) float64) float64 {
		v := make([]float64, len(passes))
		for i, ps := range passes {
			v[i] = f(ps)
		}
		return median(v)
	}
	wall := med(func(p *pass) float64 { return p.wall.Seconds() })
	ms.add("wall_s", wall, "s")
	ms.add("cpu_s", med(func(p *pass) float64 { return p.cpu.Seconds() }), "s")
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	ms.add("setup_s", median(setupS), "s")
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	ms.add("peak_rss_mb", rss, "MB")
	if calibRep != nil {
		for _, ds := range calibRep.Datasets {
			ms.add("calib_err_"+ds.Dataset+"_pct", 100*ds.MeanRelErr, "%")
		}
	}

	ms.add("machine.sim_ops", float64(ref.simOps), "count")
	ms.add("machine.sim_cycles", float64(ref.simCycles), "count")
	if ref.simOps > 0 {
		ms.add("machine.host_ns_per_sim_op", wall*1e9/float64(ref.simOps), "ns")
	}
	ms.add("runtime.alloc_gb", med(func(p *pass) float64 { return float64(p.allocBytes) / 1e9 }), "GB")
	ms.add("runtime.mallocs_m", med(func(p *pass) float64 { return float64(p.mallocs) / 1e6 }), "count")
	ms.add("runtime.gc_cycles", med(func(p *pass) float64 { return float64(p.gcCycles) }), "count")
	ms.add("runtime.gc_pause_ms", med(func(p *pass) float64 { return float64(p.gcPause) / 1e6 }), "ms")

	res.Units = make([]unitRecord, len(ref.results))
	unitMed := make([]float64, len(ref.results))
	for i, r := range ref.results {
		rec := unitRecord{ID: r.ID}
		for _, ps := range passes {
			rec.WallS = append(rec.WallS, ps.results[i].Elapsed().Seconds())
		}
		if ur, ok := unitResult(r); ok {
			rec.SimCycles = int64(ur.SimCycles)
		}
		unitMed[i] = median(rec.WallS)
		res.Units[i] = rec
	}
	ms.add("bench.units", float64(len(ref.results)), "count")
	ms.add("bench.unit_p50_s", median(unitMed), "s")
	ms.add("bench.unit_max_s", slices.Max(unitMed), "s")
	ms.add("bench.metered_units", float64(len(res.Metered)), "count")
	ms.add("bench.unassigned_units", float64(len(first.unassigned)), "count")
	ms.add("calib.measure_s", calibWall.Seconds(), "s")

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%s-%s", w.Name, seed, res.Mode, runID))
	if traced {
		f, err := foldProfile(profile)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if err := addHostLayers(ms, f, traced1.cpu.Seconds()); err != nil {
			res.fail("%v", err)
		}
		ms.add("trace.samples", float64(f.samples), "count")
		ms.add("trace.overhead_frac", traced1.wall.Seconds()/wall-1, "ratio")
		tr.end(tr.root, nil)
		if err := os.WriteFile(stem+".cpu.pprof", profile, 0o644); err != nil {
			return nil, err
		}
		if err := tr.write(stem + ".spans.json"); err != nil {
			return nil, err
		}
		res.Files = append(res.Files, filepath.Base(stem+".cpu.pprof"), filepath.Base(stem+".spans.json"))
	}
	if attrPass != nil {
		a := attribute(attrPass.results)
		a.add(ms)
		fmt.Printf("# simcyc: %d of %d units are metered; unmetered units contribute nothing\n",
			len(a.metered), len(ref.results))
	}
	ms.add("failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	return res, writeResult(stem+".json", res)
}

// verify checks the passes of one run: every unit succeeded, every pass
// after the first produced the same records unit by unit and (unless it
// is the attribution pass, which runs only the metered units) simulated
// the same work, and the goldens match byte for byte.
func (res *result) verify(passes []*pass, attrPass *pass, first *plan) {
	ref := passes[0]
	refDigests := unitDigests(ref.results)
	for i, ps := range passes {
		res.Attempted += len(ps.results)
		for _, r := range ps.results {
			if r.Err != nil {
				res.fail("pass %d: %s: %s", i, r.ID, firstLine(r.Err.Error()))
			}
		}
		if ps.calibErr != nil {
			res.Attempted++
			res.fail("pass %d: %v", i, ps.calibErr)
		}
		if i == 0 {
			continue
		}
		res.Attempted++
		for id, d := range unitDigests(ps.results) {
			if want, ok := refDigests[id]; ok && want != d {
				res.fail("pass %d: %s: output differs from pass 0", i, id)
			}
		}
		if ps != attrPass && (ps.simOps != ref.simOps || ps.simCycles != ref.simCycles) {
			res.fail("pass %d: simulated %d ops / %d cycles, pass 0 simulated %d / %d",
				i, ps.simOps, ps.simCycles, ref.simOps, ref.simCycles)
		}
	}
	res.Attempted += len(first.goldens)
	for _, msg := range checkGoldens(first, ref.results) {
		res.fail("%s", msg)
	}
	res.Digests = experimentDigests(ref.results)
}

func (res *result) fail(format string, args ...any) {
	res.Failed++
	res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
}

// addHostLayers adds host.<layer>_s for every layer: the layer's share
// of the profile applied to the traced pass's measured CPU seconds, so
// the layers sum to host.total_s and are not quantized to the 10 ms
// sampling period. It fails when the fold lost samples.
func addHostLayers(ms *metrics, f fold, cpu float64) error {
	var sum float64
	for _, l := range layers {
		sum += f.seconds[l]
	}
	if f.total <= 0 || math.Abs(sum-f.total) > 0.02*f.total {
		return fmt.Errorf("profile fold: layers sum to %.3f s of %.3f s profiled", sum, f.total)
	}
	for _, l := range layers {
		ms.add("host."+l+"_s", f.seconds[l]/f.total*cpu, "s")
	}
	ms.add("host.total_s", cpu, "s")
	return nil
}

func writeResult(path string, res *result) error {
	return os.WriteFile(path, []byte(marshalLine(res)+"\n"), 0o644)
}

// firstLine truncates multi-line errors (panic stacks).
func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// median of v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = slices.Clone(v)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps measurements in the order they were taken.
type metrics []metric

func (ms *metrics) add(name string, v float64, unit string) {
	*ms = append(*ms, metric{name, v, unit})
}

// pick returns the named metrics in the summary line's format.
func (ms metrics) pick(names []string) map[string]any {
	out := make(map[string]any, len(names))
	for _, m := range ms {
		if slices.Contains(names, m.Name) {
			out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	return out
}
