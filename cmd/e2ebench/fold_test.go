package main

import (
	"bytes"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

func TestFrameLayerInternalPackages(t *testing.T) {
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		want, ok := pkgLayer[d.Name()]
		if !ok {
			t.Errorf("internal/%s has no layer in pkgLayer", d.Name())
			continue
		}
		for _, fn := range []string{
			"optanesim/internal/" + d.Name() + ".New",
			"optanesim/internal/" + d.Name() + ".(*T).Method.func1",
		} {
			if got, ok := frameLayer(fn); !ok || got != want {
				t.Errorf("frameLayer(%q) = %q, %v; want %q", fn, got, ok, want)
			}
		}
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"optanesim/internal/cache.(*Cache).Insert":            "cache",
		"optanesim/internal/pmem.(*Heap).Uint64":              "pmem",
		"optanesim/internal/btree.(*Tree).Insert":             "index",
		"optanesim/internal/kvstore.(*Store).Put":             "index",
		"optanesim/internal/telemetry.(*chunked[...]).append": "telemetry",
		"optanesim/internal/runner.runTask":                   "bench",
		"optanesim/internal/bench.fig8Units.func1":            "bench",
		"optanesim.NewG1":                                     "bench",
		"main.runPass":                                        "bench",
		"runtime.memclrNoHeapPointers":                        "rt_alloc",
		"runtime.mallocgc":                                    "rt_alloc",
		"runtime.gcBgMarkWorker":                              "rt_alloc",
		"runtime.scanobject":                                  "rt_alloc",
		"runtime.(*mheap).allocSpan":                          "rt_alloc",
		"runtime.madvise":                                     "rt_alloc",
		"runtime.growslice":                                   "rt_alloc",
		"runtime._GC":                                         "rt_alloc",
		"runtime.chanrecv":                                    "rt_sched",
		"runtime.chansend1":                                   "rt_sched",
		"runtime.selectgo":                                    "rt_sched",
		"runtime.gopark":                                      "rt_sched",
		"runtime.goready":                                     "rt_sched",
		"runtime.schedule":                                    "rt_sched",
		"runtime.findRunnable":                                "rt_sched",
		"runtime.futex":                                       "rt_sched",
		"runtime.casgstatus":                                  "rt_sched",
		"runtime.memmove":                                     "",
		"runtime.mapaccess2_fast64":                           "",
		"encoding/binary.littleEndian.Uint64":                 "",
		"internal/runtime/maps.(*Map).getWithKeySmall":        "",
		"sync.(*Mutex).Lock":                                  "",
		"runtime/pprof.(*profileBuilder).addCPUData":          "",
		"golang.org/x/exp/slices.Sort":                        "",
	} {
		got, ok := frameLayer(fn)
		if ok != (want != "") || got != want {
			t.Errorf("frameLayer(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

func TestSampleLayerWalksToNearestLayer(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string // leaf first
	}{
		{"pmem", []string{"encoding/binary.littleEndian.Uint64", "optanesim/internal/pmem.(*Heap).Uint64", "optanesim/internal/btree.(*Tree).Insert"}},
		{"rt_alloc", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "optanesim/internal/pmem.NewPMHeap"}},
		{"cache", []string{"runtime.memmove", "optanesim/internal/cache.(*Cache).CloneInto"}},
		{"rt_sched", []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}},
		{"bench", []string{"runtime.nanotime", "time.Now", "optanesim/internal/runner.runTask"}},
		{"rt_other", []string{"runtime/pprof.(*profileBuilder).addCPUData", "runtime/pprof.profileWriter"}},
		{"rt_other", nil},
	} {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var sink uint64

// spin burns CPU in a frame this package owns (layer "bench").
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

func TestFoldProfileSumsToTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	f, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.samples == 0 || f.total <= 0 {
		t.Fatalf("no samples in a 400 ms busy loop: %+v", f)
	}
	var sum float64
	for _, l := range layers {
		sum += f.seconds[l]
	}
	for l := range f.seconds {
		if !slices.Contains(layers, l) {
			t.Errorf("fold charged unknown layer %q", l)
		}
	}
	if math.Abs(sum-f.total) > 0.02*f.total {
		t.Errorf("layers sum to %v s of %v s", sum, f.total)
	}
	if f.seconds["bench"] < 0.5*f.total {
		t.Errorf("busy loop in package main charged %v s of %v s to bench: %v", f.seconds["bench"], f.total, f.seconds)
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("foldProfile accepted garbage")
	}
}
