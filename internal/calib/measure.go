package calib

import (
	"fmt"

	"optanesim/internal/bench"
	"optanesim/internal/machine"
	"optanesim/internal/mem"
)

// SimValue is one simulator measurement, in the same metric vocabulary
// as the reference datasets.
type SimValue struct {
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
}

// metricDef names one calibration metric and the unit it is reported
// in. The list is the closed vocabulary shared by Measure, the
// reference datasets, and the golden — a dataset or golden referring to
// a metric outside it is malformed.
type metricDef struct {
	Name string
	Unit string
}

// metricDefs lists every metric Measure produces, in report order.
var metricDefs = []metricDef{
	{"pm_read_lat_rand_ns", "ns"},
	{"pm_read_lat_seq_ns", "ns"},
	{"dram_read_lat_rand_ns", "ns"},
	{"pm_ntstore_lat_ns", "ns"},
	{"pm_read_bw_dimm_gbs", "GB/s"},
	{"pm_write_bw_dimm_gbs", "GB/s"},
	{"pm_rw_bw_ratio", "ratio"},
	{"pm_wa_rand64", "ratio"},
	{"pm_wa_seq", "ratio"},
}

// metricUnit returns the unit of a known metric ("" for unknown).
func metricUnit(name string) string {
	for _, d := range metricDefs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// Measure runs the simulator configurations matching the published
// experiments and returns one value per metric in metricDefs. All
// measurements run the G1 testbed (the generation both reference
// studies characterize) at a fixed scale, so the output is a pure
// function of the simulator — byte-stable until the model changes. The
// idle random-read and persist latencies are the §2.2 latency table's
// cells (bench.LatencyTable): dependent cold loads and 64 B
// ntstore+sfence pairs at a 4 KB stride, the idle pointer-chase and
// persist latencies of both studies.
func Measure() []SimValue {
	g1 := machine.G1Config(1)
	toNS := func(cycles float64) float64 {
		return cycles / g1.CPU.FrequencyGHz
	}
	idle := bench.LatencyTable(bench.G1)
	row := func(op string) float64 {
		for _, r := range idle {
			if r.Op == op {
				return r.Cycles
			}
		}
		panic(fmt.Sprintf("calib: the latency table has no %q row", op))
	}

	m := new(machine.Meter)
	vals := map[string]float64{
		"pm_read_lat_rand_ns":   toNS(row("PM random read (cold)")),
		"pm_read_lat_seq_ns":    toNS(latSeqRead(m)),
		"dram_read_lat_rand_ns": toNS(row("DRAM random read (cold)")),
		"pm_ntstore_lat_ns":     toNS(row("PM nt-store+sfence")),
		"pm_wa_rand64":          waSparse(m),
		"pm_wa_seq":             waSeq(m),
	}
	readBW, writeBW := peakBandwidth()
	vals["pm_read_bw_dimm_gbs"] = readBW
	vals["pm_write_bw_dimm_gbs"] = writeBW
	if writeBW > 0 {
		vals["pm_rw_bw_ratio"] = readBW / writeBW
	}

	out := make([]SimValue, len(metricDefs))
	for i, d := range metricDefs {
		out[i] = SimValue{Metric: d.Name, Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// latSeqRead measures dependent sequential cacheline loads over a
// fresh region (average cycles per load): every line is a compulsory
// cache miss, but the prefetchers and the on-DIMM read buffer absorb
// most of the media cost — the studies' sequential-latency number.
func latSeqRead(m *machine.Meter) float64 {
	const n = 8192 // 512 KB, each line touched once
	sys := m.System(machine.G1Config(1))
	var total float64
	sys.Go("lat", 0, false, func(t *machine.Thread) {
		start := t.Now()
		for i := 0; i < n; i++ {
			t.LoadDep(mem.PMBase + mem.Addr(i)*mem.CachelineSize)
		}
		total = float64(t.Now()-start) / n
	})
	m.Run(sys)
	return total
}

// peakBandwidth returns the single-DIMM peak sequential read and
// ntstore bandwidths (GB/s), taking the best thread count of a small
// sweep like the studies' bandwidth experiments do.
func peakBandwidth() (readGBs, writeGBs float64) {
	pts := bench.Bandwidth(bench.BandwidthOptions{
		Gen:            bench.G1,
		Threads:        []int{1, 2, 4, 8},
		BytesPerThread: 512 * bench.KB,
	})
	for _, p := range pts {
		if p.ReadGBs > readGBs {
			readGBs = p.ReadGBs
		}
		if p.WriteGBs > writeGBs {
			writeGBs = p.WriteGBs
		}
	}
	return readGBs, writeGBs
}

// waSparse measures media write amplification for sparse 64 B writes:
// one ntstore per XPLine over a 1 MB region, fenced every 16 — each
// dirty line forces a 256 B media RMW once it leaves the write buffer,
// the EWR-0.25 case of the reference studies.
func waSparse(m *machine.Meter) float64 {
	sys := m.System(machine.G1Config(1))
	const xplines = 4096 // 1 MB region
	sys.Go("wa", 0, false, func(t *machine.Thread) {
		pass := func() {
			for i := 0; i < xplines; i++ {
				t.NTStore(mem.PMBase + mem.Addr(i)*mem.XPLineSize)
				if i%16 == 15 {
					t.SFence()
				}
			}
			t.SFence()
		}
		pass()
		sys.ResetCounters()
		pass()
		pass()
	})
	m.Run(sys)
	return sys.PMCounters().WA()
}

// waSeq measures media write amplification for dense sequential
// writes: every cacheline of a 1 MB region ntstored in order, so whole
// XPLines coalesce in the write buffer and reach the media without
// RMW.
func waSeq(m *machine.Meter) float64 {
	sys := m.System(machine.G1Config(1))
	const lines = 16384 // 1 MB region
	sys.Go("wa", 0, false, func(t *machine.Thread) {
		pass := func() {
			for i := 0; i < lines; i++ {
				t.NTStore(mem.PMBase + mem.Addr(i)*mem.CachelineSize)
				if i%64 == 63 {
					t.SFence()
				}
			}
			t.SFence()
		}
		pass()
		sys.ResetCounters()
		pass()
		pass()
	})
	m.Run(sys)
	return sys.PMCounters().WA()
}

// checkVocabulary verifies every reference value uses a known metric
// with the right unit; used by tests and the datasets' own sanity.
func checkVocabulary(ds []Dataset) error {
	for _, d := range ds {
		seen := map[string]bool{}
		for _, r := range d.Refs {
			unit := metricUnit(r.Metric)
			if unit == "" {
				return fmt.Errorf("calib: dataset %s: unknown metric %q", d.Name, r.Metric)
			}
			if unit != r.Unit {
				return fmt.Errorf("calib: dataset %s: metric %s unit %q, want %q", d.Name, r.Metric, r.Unit, unit)
			}
			if r.Value <= 0 {
				return fmt.Errorf("calib: dataset %s: metric %s non-positive value %v", d.Name, r.Metric, r.Value)
			}
			if seen[r.Metric] {
				return fmt.Errorf("calib: dataset %s: duplicate metric %s", d.Name, r.Metric)
			}
			seen[r.Metric] = true
		}
	}
	return nil
}
