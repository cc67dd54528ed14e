package bench_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optanesim/internal/bench"
	"optanesim/internal/runner"
	"optanesim/internal/telemetry"
)

// reuseSweeps are the experiments whose every sweep cell builds into the
// previous cell's finished system (machine.Meter.System).
var reuseSweeps = []string{"fig2", "fig3", "fig13"}

// experimentUnits returns the units of the named experiments in order,
// and how many of them each experiment contributed.
func experimentUnits(t *testing.T, names []string, o bench.Options) ([]bench.Unit, []int) {
	t.Helper()
	var units []bench.Unit
	counts := make([]int, len(names))
	for i, name := range names {
		exp, ok := bench.ExperimentUnits(name, o)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		units = append(units, exp...)
		counts[i] = len(exp)
	}
	return units, counts
}

// checkQuickDigests splits structured (one JSONL line per unit, in
// experimentUnits order) into the named experiments and checks each one's
// sha256 against its line of testdata/quick.sha256 (sha256sum format,
// "<digest>  <experiment>.jsonl").
func checkQuickDigests(t *testing.T, label string, names []string, structured []byte, counts []int) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "quick.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	f := strings.Fields(string(data))
	for i := 0; i+1 < len(f); i += 2 {
		want[strings.TrimSuffix(f[i+1], ".jsonl")] = f[i]
	}
	lines := bytes.SplitAfter(structured, []byte("\n"))
	for i, name := range names {
		sum := sha256.Sum256(bytes.Join(lines[:counts[i]], nil))
		lines = lines[counts[i]:]
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: %s.jsonl sha256 %s, want %s (testdata/quick.sha256)", label, name, got, want[name])
		}
	}
}

// TestWarmReuseByteIdentical pins that reusing a finished — warm —
// system as the storage for the next sweep cell changes no result: each
// fig2, fig3 and fig13 cell builds into the previous cell's system,
// which Meter.System resets to the fresh state, so the structured
// JSONL must hash to the committed -quick digests (recorded from
// fresh-system builds), sequentially and on a worker pool.
func TestWarmReuseByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation sweep; skipped in -short mode")
	}
	units, counts := experimentUnits(t, reuseSweeps, bench.Options{Quick: true})
	seq := runStructured(t, units, 1)
	checkQuickDigests(t, "j1", reuseSweeps, seq, counts)
	units, _ = experimentUnits(t, reuseSweeps, bench.Options{Quick: true})
	par := runStructured(t, units, 4)
	checkQuickDigests(t, "j4", reuseSweeps, par, counts)
	if !bytes.Equal(seq, par) {
		t.Fatalf("results differ between -j 1 and -j 4:\n%s", firstLineDiff(seq, par))
	}
}

// TestWarmReuseTelemetryDegrades pins the reuse sweeps under a telemetry
// recorder. Reuse never has to degrade: every cell runs its own warmup
// on its own system, so the recorder observes each cell's warm phase.
// With gauge sampling and the breakdown layer attached, every unit must
// return its recording, the structured JSONL must still hash to the
// committed -quick digests, and the telemetry JSONL (events, samples,
// histograms) must be byte-identical between -j 1 and -j 2.
func TestWarmReuseTelemetryDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation sweep; skipped in -short mode")
	}
	run := func(workers int) []byte {
		units, counts := experimentUnits(t, reuseSweeps, bench.Options{
			Quick: true,
			Telemetry: func(unit string) *telemetry.Recorder {
				return telemetry.NewRecorder(unit, telemetry.Config{SampleEvery: 4096, Breakdown: true})
			},
		})
		tasks := make([]runner.Task, len(units))
		for i, u := range units {
			u := u
			tasks[i] = runner.Task{ID: u.ID(), Run: func() (any, error) { return u.Run(), nil }}
		}
		urs := make([]bench.UnitResult, len(units))
		var out bytes.Buffer
		for i, r := range runner.Run(tasks, workers) {
			if r.Err != nil {
				t.Fatalf("unit %s: %v", r.ID, r.Err)
			}
			ur := r.Value.(bench.UnitResult)
			urs[i] = ur
			if ur.Telemetry == nil {
				t.Fatalf("unit %s: no telemetry recording", r.ID)
			}
			if err := telemetry.WriteEventsJSONL(&out, ur.Telemetry); err != nil {
				t.Fatalf("unit %s: telemetry events: %v", r.ID, err)
			}
			if err := telemetry.WriteSamplesJSONL(&out, ur.Telemetry); err != nil {
				t.Fatalf("unit %s: telemetry samples: %v", r.ID, err)
			}
			if err := telemetry.WriteHistsJSONL(&out, ur.Telemetry); err != nil {
				t.Fatalf("unit %s: telemetry hists: %v", r.ID, err)
			}
		}
		structured, err := bench.EncodeJSONL(urs)
		if err != nil {
			t.Fatalf("encoding: %v", err)
		}
		checkQuickDigests(t, fmt.Sprintf("telemetry j%d", workers), reuseSweeps, structured, counts)
		return out.Bytes()
	}
	seq, par := run(1), run(2)
	if !bytes.Equal(seq, par) {
		t.Fatalf("telemetry differs between -j 1 and -j 2:\n%s", firstLineDiff(seq, par))
	}
}

// TestFig14QuickDigest pins fig14's -quick structured results to the
// committed digest, the same pin CI's smoke run checks: the redirected
// path stages each thread's copies in its own fixed DRAM XPLine.
func TestFig14QuickDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation sweep; skipped in -short mode")
	}
	names := []string{"fig14"}
	units, counts := experimentUnits(t, names, bench.Options{Quick: true})
	checkQuickDigests(t, "j2", names, runStructured(t, units, 2), counts)
}

// TestFig12CellsIndependent pins fig12's prebuilt trees: each unit
// builds each mode's tree once, and every cell rewinds the unit's heap
// to it, so a point must equal the point of its thread count run alone
// on a heap no other cell has touched.
func TestFig12CellsIndependent(t *testing.T) {
	opts := func(threads ...int) bench.Fig12Options {
		return bench.Fig12Options{Threads: threads, PrebuildKeys: 20_000, InsertsPerThread: 300}
	}
	swept := bench.Fig12(opts(1, 3))
	for i, th := range []int{1, 3} {
		if alone := bench.Fig12(opts(th))[0]; swept[i] != alone {
			t.Errorf("%d threads: swept %+v, alone %+v", th, swept[i], alone)
		}
	}
}
