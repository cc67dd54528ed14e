package simbench

import (
	"testing"

	"optanesim/internal/fault"
	"optanesim/internal/machine"
	"optanesim/internal/telemetry"
)

// The BenchmarkSimCore* wrappers expose the shared bodies to `go test
// -bench SimCore`; cmd/benchjson runs the same bodies via
// testing.Benchmark so the CI artifact and local runs measure identical
// code.

func BenchmarkSimCoreLoad(b *testing.B)         { Load(b) }
func BenchmarkSimCoreStore(b *testing.B)        { Store(b) }
func BenchmarkSimCoreFlushFence(b *testing.B)   { FlushFence(b) }
func BenchmarkSimCoreMultiThread(b *testing.B)  { MultiThread(b) }
func BenchmarkSimCoreMultiThread4(b *testing.B) { MultiThread4(b) }
func BenchmarkSimCoreMultiThread8(b *testing.B) { MultiThread8(b) }

// The Contended* variants run the persist loop through the shared WPQ,
// so they track the scheduler's handoff cost on the multi-writer
// persist path.
func BenchmarkSimCoreContended2(b *testing.B) { Contended2(b) }
func BenchmarkSimCoreContended4(b *testing.B) { Contended4(b) }
func BenchmarkSimCoreContended8(b *testing.B) { Contended8(b) }

// The MultiDIMM* variants stream nt-stores across a DIMM interleave,
// baselining the multi-DIMM routing hot path.
func BenchmarkSimCoreMultiDIMM2(b *testing.B) { MultiDIMM2(b) }
func BenchmarkSimCoreMultiDIMM4(b *testing.B) { MultiDIMM4(b) }
func BenchmarkSimCoreMultiDIMM8(b *testing.B) { MultiDIMM8(b) }

// The *Telemetry variants run the same bodies with a live recorder, so
// `go test -bench SimCore` shows the telemetry overhead side by side.
func BenchmarkSimCoreLoadTelemetry(b *testing.B)       { LoadTelemetry(b) }
func BenchmarkSimCoreFlushFenceTelemetry(b *testing.B) { FlushFenceTelemetry(b) }

// BuildReusing times a donor-backed build, the per-cell system cost of
// the fig2/fig3/fig13 sweeps.
func BenchmarkSimCoreBuildReusing(b *testing.B) { BuildReusing(b) }

// TestHotPathAllocs pins the zero-allocation guarantee: once a
// single-thread workload reaches steady state, the Load, Store,
// CLWB+SFence, and NTStore+SFence paths must not allocate — with
// telemetry off AND with a live recorder attached. The telemetry-on
// subtest covers event emission into the preallocated ring and the
// per-op sampler tick; its sampling period is set beyond the probes'
// simulated extent so the measured batches never cross the sampler's
// chunk-boundary block allocation, which is pinned separately (and
// amortized) by the telemetry package's own alloc test. The measurement
// runs inside the thread body — legal because a single-thread system
// executes its workload inline on the calling goroutine — so
// testing.AllocsPerRun sees exactly the per-op path with no per-Run
// setup in the way.
// The faults-idle subtest pins the fault injector's zero-cost-when-idle
// contract: an attached injector with no fault classes configured must
// not add a single allocation to the hot paths (its decision points are
// pointer tests plus empty-map probes).
// The breakdown subtest runs with cycle attribution recording: every op
// charges components into the shared scratchpad and records into
// preallocated histograms, so steady state must still be allocation-free
// (tenant interning happens once, inside the warmup run).
// The reused subtest runs on a system built into a warmed donor
// (machine.MustNewSystemReusing, the build every fig2/fig3/fig13 cell
// uses): recycled cache storage must be just as allocation-free at
// steady state as a fresh build.
func TestHotPathAllocs(t *testing.T) {
	t.Run("plain", func(t *testing.T) { testHotPathAllocs(t, false, false, false, false) })
	t.Run("telemetry", func(t *testing.T) { testHotPathAllocs(t, true, false, false, false) })
	t.Run("faults-idle", func(t *testing.T) { testHotPathAllocs(t, false, true, false, false) })
	t.Run("breakdown", func(t *testing.T) { testHotPathAllocs(t, true, false, true, false) })
	t.Run("reused", func(t *testing.T) { testHotPathAllocs(t, false, false, false, true) })
}

func testHotPathAllocs(t *testing.T, telemetryOn, faultsOn, breakdownOn, reused bool) {
	sys := machine.MustNewSystem(machine.G1Config(1))
	if reused {
		sys.Go("donor", 0, false, warm)
		sys.Run()
		sys = machine.MustNewSystemReusing(machine.G1Config(1), sys)
	}
	if faultsOn {
		sys.AttachFaults(fault.New(fault.Config{}))
	}
	if telemetryOn {
		rec := telemetry.NewRecorder("alloc-probe", telemetry.Config{SampleEvery: 1 << 40, Breakdown: breakdownOn})
		sys.AttachTelemetry(rec)
	}
	type probe struct {
		name string
		ops  func(th *machine.Thread)
	}
	var got map[string]float64
	probeBody := func(th *machine.Thread) {
		i := 0
		probes := []probe{
			{"Load", func(th *machine.Thread) {
				for k := 0; k < 64; k++ {
					th.Load(line(i))
					i++
				}
			}},
			{"Store", func(th *machine.Thread) {
				for k := 0; k < 64; k++ {
					th.Store(line(i))
					i++
				}
			}},
			{"CLWB+SFence", func(th *machine.Thread) {
				for k := 0; k < 8; k++ {
					a := line(i)
					th.Store(a)
					th.CLWB(a)
					th.SFence()
					i++
				}
			}},
			{"NTStore+SFence", func(th *machine.Thread) {
				for k := 0; k < 8; k++ {
					th.NTStore(line(i))
					th.SFence()
					i++
				}
			}},
			{"Tagged Load", func(th *machine.Thread) {
				th.SetTag("probe")
				for k := 0; k < 64; k++ {
					th.Load(line(i))
					i++
				}
				th.SetTag("")
			}},
			{"Tenant Load", func(th *machine.Thread) {
				th.SetTenant("probe-tenant")
				for k := 0; k < 64; k++ {
					th.Load(line(i))
					i++
				}
				th.SetTenant("")
			}},
		}
		got = make(map[string]float64, len(probes))
		for _, p := range probes {
			p := p
			got[p.name] = testing.AllocsPerRun(50, func() { p.ops(th) })
		}
	}
	// Warm up (grow pending/flushRing to capacity, populate caches, WPQ
	// rings and the hazard map to steady-state size), then probe.
	sys.Go("alloc-probe", 0, false, func(th *machine.Thread) {
		warm(th)
		probeBody(th)
	})
	sys.Run()
	for name, allocs := range got {
		if allocs != 0 {
			t.Errorf("steady-state %s path allocates: %.1f allocs per batch (want 0)", name, allocs)
		}
	}
	// The probes above must have actually executed.
	if len(got) == 0 {
		t.Fatal("alloc probes did not run")
	}
}
