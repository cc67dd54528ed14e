// Package simbench holds the simulator-core microbenchmark bodies: tight
// loops over the per-operation hot path in internal/machine (loads,
// stores, flush+fence persist sequences, and multi-thread baton passing).
// The bodies are plain exported functions taking *testing.B so they can
// be driven both as go-test benchmarks (internal/simbench's
// BenchmarkSimCore* wrappers) and programmatically by cmd/benchjson via
// testing.Benchmark, which is how CI produces the BENCH_simcore.json
// perf-trajectory artifact. The cold-path body (coldChase) is
// unexported, so it runs only as a go-test benchmark.
//
// Every body measures HOST throughput of the simulator, never simulated
// time: the cycle model is pinned by the golden and determinism tests,
// and these benchmarks exist to keep wall-clock ops/sec from regressing.
package simbench

import (
	"fmt"
	"testing"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/sim"
	"optanesim/internal/telemetry"
	"optanesim/internal/workload"
)

// workingLines is the benchmark working set in cachelines. 256 lines =
// 16 KB, comfortably inside both generations' L1d, so after the first
// pass every load and store is a hot cache hit and the benchmark times
// the op-dispatch path itself rather than the memory model.
const workingLines = 256

// line returns the i-th working-set line address in PM.
func line(i int) mem.Addr {
	return mem.PMBase + mem.Addr((i%workingLines)*mem.CachelineSize)
}

// coldSpan is the cold-path working set: 64 MB of PM, four times the
// reach of the DIMM's 4,096-entry AIT cache and more than twice G1's
// L3, so a load that lands on a line it has not touched recently misses
// every cache level, the read buffer and the AIT.
const coldSpan = 64 << 20

// Load measures hot cacheable loads on a single thread: the
// schedule/readPath/advance path with every access an L1 hit after the
// first lap of the working set.
func Load(b *testing.B) {
	sys := machine.MustNewSystem(machine.G1Config(1))
	b.ReportAllocs()
	b.ResetTimer()
	sys.Go("bench-load", 0, false, func(t *machine.Thread) {
		for i := 0; i < b.N; i++ {
			t.Load(line(i))
		}
	})
	sys.Run()
}

// Store measures hot cacheable stores on a single thread: write-allocate
// hits in L1 once the working set is resident.
func Store(b *testing.B) {
	sys := machine.MustNewSystem(machine.G1Config(1))
	b.ReportAllocs()
	b.ResetTimer()
	sys.Go("bench-store", 0, false, func(t *machine.Thread) {
		for i := 0; i < b.N; i++ {
			t.Store(line(i))
		}
	})
	sys.Run()
}

// FlushFence measures the §4.2 persist loop — store, clwb, sfence — the
// sequence every persistent index issues per durable update. It
// exercises the flush bookkeeping (pending/flushRing), the WPQ model,
// and fence draining.
func FlushFence(b *testing.B) {
	sys := machine.MustNewSystem(machine.G1Config(1))
	b.ReportAllocs()
	b.ResetTimer()
	sys.Go("bench-persist", 0, false, func(t *machine.Thread) {
		for i := 0; i < b.N; i++ {
			a := line(i)
			t.Store(a)
			t.CLWB(a)
			t.SFence()
		}
	})
	sys.Run()
}

// multiThread is the shared body for the MultiThread variants: nthreads
// threads on separate cores issue hot loads to disjoint working sets.
// Every load is an L1 hit of the same cost, so the threads' clocks stay
// tied: each operation carries its thread to the grant horizon and the
// baton passes once per operation. This is the scheduler's worst case —
// it times one coroutine handoff per simulated operation. ns/op is per
// operation summed over all threads.
func multiThread(b *testing.B, nthreads int) {
	sys := machine.MustNewSystem(machine.G1Config(nthreads))
	n := b.N/nthreads + 1
	body := func(base mem.Addr) func(*machine.Thread) {
		return func(t *machine.Thread) {
			for i := 0; i < n; i++ {
				t.Load(base + mem.Addr((i%workingLines)*mem.CachelineSize))
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < nthreads; c++ {
		base := mem.PMBase + mem.Addr(c*workingLines*mem.CachelineSize)
		sys.Go(fmt.Sprintf("bench-mt%d", c), c, false, body(base))
	}
	sys.Run()
}

// MultiThread measures the scheduler with two contending threads.
func MultiThread(b *testing.B) { multiThread(b, 2) }

// MultiThread4 measures the scheduler with four contending threads.
func MultiThread4(b *testing.B) { multiThread(b, 4) }

// MultiThread8 measures the scheduler with eight contending threads.
func MultiThread8(b *testing.B) { multiThread(b, 8) }

// contended is the shared body for the Contended variants: nthreads
// threads on separate cores each run the §4.2 persist loop (store, clwb,
// sfence) against their own PM lines, all funneling through the shared
// PM controller's WPQ — the scheduler load of every multi-writer
// persist experiment. Two threads stay tied and pass the baton once per
// operation, like MultiThread; from four threads on, WPQ queueing
// spreads the clocks and a grant covers about one loop iteration.
// ns/op is per operation (3 per loop iteration) summed over all threads.
func contended(b *testing.B, nthreads int) {
	sys := machine.MustNewSystem(machine.G1Config(nthreads))
	n := b.N/(3*nthreads) + 1
	body := func(base mem.Addr) func(*machine.Thread) {
		return func(t *machine.Thread) {
			for i := 0; i < n; i++ {
				a := base + mem.Addr((i%workingLines)*mem.CachelineSize)
				t.Store(a)
				t.CLWB(a)
				t.SFence()
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < nthreads; c++ {
		base := mem.PMBase + mem.Addr(c*workingLines*mem.CachelineSize)
		sys.Go(fmt.Sprintf("bench-wpq%d", c), c, false, body(base))
	}
	sys.Run()
}

// Contended2 measures two threads contending on the WPQ persist path.
func Contended2(b *testing.B) { contended(b, 2) }

// Contended4 measures four threads contending on the WPQ persist path.
func Contended4(b *testing.B) { contended(b, 4) }

// Contended8 measures eight threads contending on the WPQ persist path.
func Contended8(b *testing.B) { contended(b, 8) }

// multiDIMM is the shared body for the MultiDIMM variants: one thread
// streams nt-stores across an interleave of `dimms` PM DIMMs, the
// bandwidth-loop shape of the bandwidth, fig13 and fig14 experiments.
// Sequential cacheline addresses walk the 4 KB interleave granules, so
// consecutive writes rotate across every DIMM every lap.
func multiDIMM(b *testing.B, dimms int) {
	cfg := machine.G1Config(1)
	cfg.PMDIMMs = dimms
	sys := machine.MustNewSystem(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	sys.Go("bench-md", 0, false, func(t *machine.Thread) {
		// Span dimms granules' worth of lines so routing rotates across
		// the whole interleave set every lap.
		lines := dimms * (4 << 10) / mem.CachelineSize
		for i := 0; i < b.N; i++ {
			t.NTStore(mem.PMBase + mem.Addr((i%lines)*mem.CachelineSize))
			if i%16 == 15 {
				t.SFence()
			}
		}
		t.SFence()
	})
	sys.Run()
}

// MultiDIMM2 measures nt-store streaming over a 2-DIMM interleave.
func MultiDIMM2(b *testing.B) { multiDIMM(b, 2) }

// MultiDIMM4 measures nt-store streaming over a 4-DIMM interleave.
func MultiDIMM4(b *testing.B) { multiDIMM(b, 4) }

// MultiDIMM8 measures nt-store streaming over an 8-DIMM interleave.
func MultiDIMM8(b *testing.B) { multiDIMM(b, 8) }

// coldChase measures the cold path that dominates fig8: fig8 strict's
// element mix (a dependent load of the element, then store + clwb of
// its pad line, then sfence) over a shuffled chase of 256 B elements
// across coldSpan, on G1 with every prefetcher on. Nearly every element
// misses every cache level, the read buffer and the AIT. ns/op is per
// element.
func coldChase(b *testing.B) {
	sys := machine.MustNewSystem(machine.G1Config(1))
	elems := workload.ChaseOrder(mem.PMBase, sim.NewRand(5), coldSpan/workload.ElementSize, true)
	b.ReportAllocs()
	b.ResetTimer()
	sys.Go("bench-cold", 0, false, func(t *machine.Thread) {
		for i := 0; i < b.N; i++ {
			e := elems[i%len(elems)]
			t.LoadDep(e)
			pad := workload.PadLine(e, 1)
			t.Store(pad)
			t.CLWB(pad)
			t.SFence()
		}
	})
	sys.Run()
}

// recordingMeter turns telemetry on for a benchmark's system: every
// probe goes live and the gauge sampler runs at its default period, so
// the telemetry benchmarks measure the full recording cost, not a stub.
func recordingMeter() *machine.Meter {
	return &machine.Meter{Rec: telemetry.NewRecorder("simbench", telemetry.Config{})}
}

// LoadTelemetry is Load with a telemetry recorder attached, so the
// BENCH_simcore.json artifact records the overhead of live probes and
// sampling against the plain-Load baseline.
func LoadTelemetry(b *testing.B) {
	m := recordingMeter()
	sys := m.System(machine.G1Config(1))
	b.ReportAllocs()
	b.ResetTimer()
	sys.Go("bench-load", 0, false, func(t *machine.Thread) {
		for i := 0; i < b.N; i++ {
			t.Load(line(i))
		}
	})
	m.Run(sys)
}

// FlushFenceTelemetry is FlushFence with a telemetry recorder attached:
// the persist path is the event-densest (cache fills, WPQ traffic,
// write-buffer transitions and persist events all fire), so it bounds
// the recording overhead from above.
func FlushFenceTelemetry(b *testing.B) {
	m := recordingMeter()
	sys := m.System(machine.G1Config(1))
	b.ReportAllocs()
	b.ResetTimer()
	sys.Go("bench-persist", 0, false, func(t *machine.Thread) {
		for i := 0; i < b.N; i++ {
			a := line(i)
			t.Store(a)
			t.CLWB(a)
			t.SFence()
		}
	})
	m.Run(sys)
}

// warm drives the mixed persist-heavy loop over the working set until
// caches, WPQ rings, the hazard table and on-DIMM buffers reach
// steady-state occupancy, and the thread's store queue and flush ring
// their steady-state capacity.
func warm(t *machine.Thread) {
	for i := 0; i < 4*workingLines; i++ {
		a := line(i)
		t.Store(a)
		t.CLWB(a)
		t.SFence()
		t.NTStore(a)
		t.SFence()
		t.Load(a)
	}
}

// BuildReusing measures a donor-backed system build: Meter.System into
// a G1 system warmed by the persist-heavy working-set loop, the per-cell
// cost of a sweep that builds every cell into the previous cell's
// finished system. Warming the donor is not timed.
func BuildReusing(b *testing.B) {
	cfg := machine.G1Config(1)
	m := new(machine.Meter)
	sys := m.System(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys.Go("bench-build", 0, false, warm)
		m.Run(sys)
		b.StartTimer()
		sys = m.System(cfg)
	}
}
