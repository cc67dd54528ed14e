// Command benchjson runs the simulator-core microbenchmarks
// (internal/simbench) via testing.Benchmark and writes the results as a
// single JSON document — the BENCH_simcore.json artifact CI uploads on
// every run, so the simulator's host throughput has a recorded
// trajectory across commits.
//
// Usage:
//
//	benchjson [-benchtime D] [-o file]
//	benchjson -compare old.json new.json [-threshold 0.15]
//
// The output records, per benchmark: ns/op, B/op, allocs/op, and
// ops/sec (1e9 / ns-per-op), plus the Go version and GOMAXPROCS the
// numbers were taken under.
//
// In -compare mode no benchmarks run: the two documents are compared
// per benchmark name and the command exits non-zero if any ns_per_op
// regressed by more than the threshold (fractional; 0.15 = 15%), or if
// a baseline benchmark is missing from the new document. CI runs this
// against the committed BENCH_simcore.json so a simulator-core
// regression fails the build instead of silently landing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"optanesim/internal/simbench"
)

var (
	benchTime   = flag.Duration("benchtime", time.Second, "minimum measurement time per benchmark")
	outPath     = flag.String("o", "BENCH_simcore.json", "output file (- for stdout)")
	comparePath = flag.String("compare", "", "compare mode: baseline document path (the new document follows as an argument)")
	threshold   = flag.Float64("threshold", 0.15, "allowed fractional ns_per_op regression in -compare mode")
)

// result is one benchmark's measurement in the emitted document.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
}

type document struct {
	GoVersion  string   `json:"go_version"`
	GoMaxProcs int      `json:"gomaxprocs"`
	BenchTime  string   `json:"benchtime"`
	Results    []result `json:"results"`
}

// regression is one benchmark whose ns_per_op exceeded the allowed
// threshold between two documents.
type regression struct {
	Name   string
	OldNs  float64
	NewNs  float64
	Growth float64 // fractional increase, e.g. 0.23 = +23%
}

// compareDocs checks every baseline benchmark against the new document.
// It returns the benchmarks whose ns_per_op grew by more than threshold
// and the baseline benchmark names absent from the new document (absence
// fails the gate too — dropping a benchmark must not evade it).
// Benchmarks only present in the new document are ignored: adding
// coverage is always allowed.
func compareDocs(old, new document, threshold float64) (regs []regression, missing []string) {
	newNs := make(map[string]float64, len(new.Results))
	for _, r := range new.Results {
		newNs[r.Name] = r.NsPerOp
	}
	for _, r := range old.Results {
		ns, ok := newNs[r.Name]
		if !ok {
			missing = append(missing, r.Name)
			continue
		}
		if r.NsPerOp > 0 && ns > r.NsPerOp*(1+threshold) {
			regs = append(regs, regression{
				Name:   r.Name,
				OldNs:  r.NsPerOp,
				NewNs:  ns,
				Growth: ns/r.NsPerOp - 1,
			})
		}
	}
	return regs, missing
}

func loadDoc(path string) (document, error) {
	var doc document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(2)
}

// runCompare implements -compare. flag.Parse stops at the first
// positional argument, so in the documented invocation
//
//	benchjson -compare old.json new.json -threshold 0.15
//
// the new document's path and any trailing -threshold arrive as
// positional args; they are scanned here.
func runCompare(oldPath string, args []string, threshold float64) {
	var newPath string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-threshold" || a == "--threshold":
			i++
			if i >= len(args) {
				die("-threshold needs a value")
			}
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil {
				die("bad -threshold %q: %v", args[i], err)
			}
			threshold = v
		case strings.HasPrefix(a, "-threshold=") || strings.HasPrefix(a, "--threshold="):
			v, err := strconv.ParseFloat(a[strings.Index(a, "=")+1:], 64)
			if err != nil {
				die("bad %q: %v", a, err)
			}
			threshold = v
		case newPath == "":
			newPath = a
		default:
			die("unexpected argument %q", a)
		}
	}
	if newPath == "" {
		die("usage: benchjson -compare old.json new.json [-threshold 0.15]")
	}
	oldDoc, err := loadDoc(oldPath)
	if err != nil {
		die("%v", err)
	}
	newDoc, err := loadDoc(newPath)
	if err != nil {
		die("%v", err)
	}
	regs, missing := compareDocs(oldDoc, newDoc, threshold)
	for _, m := range missing {
		fmt.Fprintf(os.Stderr, "benchjson: %s: present in %s but missing from %s\n", m, oldPath, newPath)
	}
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "benchjson: %s regressed: %.2f -> %.2f ns/op (%+.1f%%, threshold %.0f%%)\n",
			r.Name, r.OldNs, r.NewNs, 100*r.Growth, 100*threshold)
	}
	if len(regs) > 0 || len(missing) > 0 {
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks within %.0f%% of %s\n",
		len(oldDoc.Results), 100*threshold, oldPath)
}

func main() {
	// Register the testing package's flags (test.benchtime et al.)
	// before parsing: testing.Benchmark reads them, and outside a test
	// binary they only exist after testing.Init.
	testing.Init()
	flag.Parse()

	if *comparePath != "" {
		runCompare(*comparePath, flag.Args(), *threshold)
		return
	}

	if err := flag.Set("test.benchtime", benchTime.String()); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"SimCoreLoad", simbench.Load},
		{"SimCoreStore", simbench.Store},
		{"SimCoreFlushFence", simbench.FlushFence},
		{"SimCoreMultiThread", simbench.MultiThread},
		{"SimCoreMultiThread4", simbench.MultiThread4},
		{"SimCoreMultiThread8", simbench.MultiThread8},
		// Contended variants keep a shared WPQ writeback in every
		// iteration, tracking scheduler cost where baton passes remain.
		{"SimCoreContended2", simbench.Contended2},
		{"SimCoreContended4", simbench.Contended4},
		{"SimCoreContended8", simbench.Contended8},
		// MultiDIMM variants stream nt-stores across a DIMM interleave,
		// baselining the multi-DIMM routing hot path.
		{"SimCoreMultiDIMM2", simbench.MultiDIMM2},
		{"SimCoreMultiDIMM4", simbench.MultiDIMM4},
		{"SimCoreMultiDIMM8", simbench.MultiDIMM8},
		// Telemetry-on variants: the delta against their plain
		// counterparts is the recording overhead's trajectory.
		{"SimCoreLoadTelemetry", simbench.LoadTelemetry},
		{"SimCoreFlushFenceTelemetry", simbench.FlushFenceTelemetry},
		// Donor-backed build: the per-cell system cost of the
		// fig2/fig3/fig13 sweeps.
		{"SimCoreBuildReusing", simbench.BuildReusing},
	}

	doc := document{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		BenchTime:  benchTime.String(),
	}
	for _, bm := range benches {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			bm.fn(b)
		})
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		doc.Results = append(doc.Results, result{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     ns,
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			OpsPerSec:   1e9 / ns,
		})
		fmt.Fprintf(os.Stderr, "%-22s %12d iterations  %10.2f ns/op  %6d B/op  %4d allocs/op\n",
			bm.name, r.N, ns, r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *outPath == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
