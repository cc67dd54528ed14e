package machine

import (
	"testing"

	"optanesim/internal/fault"
	"optanesim/internal/mem"
	"optanesim/internal/telemetry"
)

// TestMeterRunRecordsFaultGauges runs a wear workload (whole-XPLine
// nt-stores, then a read sweep) under a meter carrying both an injector
// and a recorder. Meter.Run attaches faults before telemetry, so the
// recording holds the fault gauges: pm_throttled reaches 1 inside a
// thermal window and poison_hits counts the poisoned media reads.
func TestMeterRunRecordsFaultGauges(t *testing.T) {
	m := &Meter{
		Inj: fault.New(fault.Config{
			Seed:    7,
			Poison:  fault.PoisonProfile{WriteOneIn: 16, ReadExtraCycles: 500},
			Thermal: fault.ThermalProfile{Period: 400000, Window: 200000, DeratePct: 150},
		}),
		Rec: telemetry.NewRecorder("meter", telemetry.Config{SampleEvery: 2000}),
	}
	sys := m.System(G1Config(1))
	sys.Go("wear", 0, false, func(th *Thread) {
		const xplines = 1024
		for i := 0; i < xplines; i++ {
			for l := 0; l < mem.LinesPerXPLine; l++ {
				th.NTStore(mem.PMBase + mem.Addr(i*mem.XPLineSize+l*mem.CachelineSize))
			}
			th.SFence()
		}
		for i := 0; i < xplines; i++ {
			th.Load(mem.PMBase + mem.Addr(i*mem.XPLineSize))
		}
	})
	if end := m.Run(sys); end == 0 || end != m.SimCycles {
		t.Fatalf("Run returned %d, meter accumulated %d", end, m.SimCycles)
	}
	peak := map[string]float64{}
	for _, s := range m.Rec.Snapshot().Series {
		for _, sm := range s.Samples {
			peak[s.Name] = max(peak[s.Name], sm.V)
		}
	}
	if peak["pm_throttled"] != 1 || peak["poison_hits"] == 0 {
		t.Fatalf("fault gauges peaked at pm_throttled=%v, poison_hits=%v; want 1 and above 0",
			peak["pm_throttled"], peak["poison_hits"])
	}
}
