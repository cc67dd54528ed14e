package machine

import (
	"testing"

	"optanesim/internal/mem"
	"optanesim/internal/sim"
	"optanesim/internal/telemetry"
	"optanesim/internal/trace"
)

// telemetryWorkload is a mixed two-thread workload touching every
// instrumented decision point: cache fills and evictions, WPQ traffic,
// read-buffer and write-buffer transitions, media operations, and
// persists.
func telemetryWorkload(sys *System) {
	sys.Go("reader", 0, false, func(t *Thread) {
		for p := 0; p < 4; p++ {
			for i := 0; i < 128; i++ {
				a := mem.PMBase + mem.Addr(i*mem.CachelineSize)
				t.Load(a)
				t.CLFlushOpt(a)
			}
		}
	})
	sys.Go("writer", 1, false, func(t *Thread) {
		for p := 0; p < 4; p++ {
			for i := 0; i < 96; i++ {
				a := mem.PMBase + (1 << 20) + mem.Addr(i*mem.XPLineSize)
				if i%2 == 0 {
					t.NTStore(a)
				} else {
					t.Store(a)
					t.CLWB(a)
				}
				if i%16 == 15 {
					t.SFence()
				}
			}
			t.SFence()
		}
	})
}

// runTelemetryWorkload executes the workload once, optionally recording.
func runTelemetryWorkload(attach bool) (sim.Cycles, trace.Counters, *telemetry.Recording) {
	sys := MustNewSystem(G1Config(2))
	var rec *telemetry.Recorder
	if attach {
		rec = telemetry.NewRecorder("unit", telemetry.Config{SampleEvery: 500})
		sys.attachTelemetry(rec)
	}
	telemetryWorkload(sys)
	end := sys.Run()
	var snap *telemetry.Recording
	if rec != nil {
		snap = rec.Snapshot()
	}
	return end, sys.PMCounters(), snap
}

// TestTelemetryTimingInvariance pins the observer-effect guarantee:
// attaching a recorder must not change a single simulated cycle or
// counter — telemetry observes the model, it never participates in it.
func TestTelemetryTimingInvariance(t *testing.T) {
	endOff, cOff, _ := runTelemetryWorkload(false)
	endOn, cOn, rec := runTelemetryWorkload(true)
	if endOff != endOn {
		t.Fatalf("end cycles differ with telemetry: off=%d on=%d", endOff, endOn)
	}
	if cOff != cOn {
		t.Fatalf("counters differ with telemetry:\noff: %+v\non:  %+v", cOff, cOn)
	}
	if rec == nil || len(rec.Events) == 0 {
		t.Fatalf("telemetry run recorded no events")
	}
}

// TestTelemetryEventCoverage asserts the workload's recording contains
// events from every instrumented layer, with monotone per-unit sources
// and populated sampler series.
func TestTelemetryEventCoverage(t *testing.T) {
	_, _, rec := runTelemetryWorkload(true)
	kinds := make(map[string]int)
	for _, e := range rec.Events {
		kinds[e.Kind.String()]++
	}
	for _, want := range []string{
		"cache-fill",    // internal/cache installs
		"wpq-enq",       // iMC write-pending-queue traffic
		"wpq-drain",     //
		"rb-miss",       // read-buffer misses install from media
		"rb-install",    //
		"wcb-alloc",     // write-buffer slot allocation
		"wcb-evict",     // write-buffer eviction to media
		"media-read",    // 256 B media accesses
		"media-write",   //
		"persist-store", // retired persist events
		"persist-fence", //
	} {
		if kinds[want] == 0 {
			t.Errorf("no %q events recorded (got %v)", want, kinds)
		}
	}
	if len(rec.Sources) == 0 {
		t.Fatalf("no sources registered")
	}
	var sampled int
	for _, s := range rec.Series {
		sampled += len(s.Samples)
	}
	if sampled == 0 {
		t.Fatalf("sampler recorded no samples (series: %d)", len(rec.Series))
	}
}
