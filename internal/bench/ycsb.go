package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/cceh"
	"optanesim/internal/machine"
	"optanesim/internal/pmem"
	"optanesim/internal/sim"
	"optanesim/internal/stats"
	"optanesim/internal/workload"
)

// YCSBWorkload selects a standard read/update mix.
type YCSBWorkload int

// The classic YCSB core mixes used with key-value stores.
const (
	// YCSBA is 50% reads / 50% updates.
	YCSBA YCSBWorkload = iota
	// YCSBB is 95% reads / 5% updates.
	YCSBB
	// YCSBC is 100% reads.
	YCSBC
)

func (w YCSBWorkload) String() string {
	switch w {
	case YCSBB:
		return "B (95/5)"
	case YCSBC:
		return "C (read-only)"
	default:
		return "A (50/50)"
	}
}

// MarshalText renders the workload name in JSON records.
func (w YCSBWorkload) MarshalText() ([]byte, error) { return []byte(w.String()), nil }

// readFraction returns the workload's read percentage.
func (w YCSBWorkload) readFraction() int {
	switch w {
	case YCSBB:
		return 95
	case YCSBC:
		return 100
	default:
		return 50
	}
}

// YCSBResult summarizes one workload run on CCEH.
type YCSBResult struct {
	Workload YCSBWorkload
	Mops     float64
	// Read and Update are latency distributions in cycles.
	Read, Update *stats.Sample
}

// YCSBOptions scales the runs. This is an extension beyond the paper's
// insert-only load phase: Zipfian-skewed read/update mixes over the
// prebuilt CCEH table, with full latency distributions.
type YCSBOptions struct {
	Gen Gen
	// OnDRAM places the table in DRAM.
	OnDRAM bool
	// TableKeys sizes the prebuilt table.
	TableKeys int
	// Ops is the measured operation count.
	Ops int
	// Theta is the Zipfian exponent (YCSB default 0.99).
	Theta float64
}

func (o *YCSBOptions) defaults() {
	if o.Gen == 0 {
		o.Gen = G1
	}
	if o.TableKeys <= 0 {
		o.TableKeys = 1_000_000
	}
	if o.Ops <= 0 {
		o.Ops = 30_000
	}
	if o.Theta == 0 {
		o.Theta = 0.99
	}
}

// YCSB runs workloads A, B and C over a prebuilt CCEH table.
func YCSB(o YCSBOptions) []YCSBResult { return ycsb(new(machine.Meter), o) }

func ycsb(m *machine.Meter, o YCSBOptions) []YCSBResult {
	o.defaults()
	var heap *pmem.Heap
	if o.OnDRAM {
		heap = pmem.NewDRAMHeap(cceh.HeapFor(o.TableKeys))
	} else {
		heap = pmem.NewPMHeap(cceh.HeapFor(o.TableKeys))
	}
	// Build the table once through a free session; each workload
	// rewinds the heap to it and reopens it (see fig12Prebuild).
	free := pmem.NewFreeSession(heap)
	keys := workload.SequenceKeys(1<<40, o.TableKeys)
	built := cceh.New(free, heap, 8)
	built.InsertBatch(free, keys, 0)
	mark := heap.Mark()

	out := make([]YCSBResult, 0, 3)
	for _, w := range []YCSBWorkload{YCSBA, YCSBB, YCSBC} {
		heap.Rewind(mark)
		tbl := cceh.Open(free, heap, built.Super())
		out = append(out, ycsbRun(m, o, w, heap, tbl, keys))
	}
	return out
}

func ycsbRun(m *machine.Meter, o YCSBOptions, wl YCSBWorkload, heap *pmem.Heap, tbl *cceh.Table, keys []uint64) YCSBResult {
	sys := m.System(o.Gen.Config(1))
	res := YCSBResult{
		Workload: wl,
		Read:     stats.New(),
		Update:   stats.New(),
	}
	var end sim.Cycles
	sys.Go("client", 0, false, func(t *machine.Thread) {
		s := pmem.NewSession(t, heap)
		rng := sim.NewRand(77)
		zipf := workload.NewZipf(rng, len(keys), o.Theta)
		warm := o.Ops / 8
		start := t.Now()
		for i := 0; i < warm+o.Ops; i++ {
			if i == warm {
				start = t.Now()
			}
			k := keys[zipf.Next()]
			t.Compute(cceh.YCSBClientCycles)
			before := t.Now()
			if int(rng.Uint64()%100) < wl.readFraction() {
				if _, ok := tbl.Lookup(s, k); !ok {
					panic("ycsb: prebuilt key missing")
				}
				if i >= warm {
					res.Read.AddCycles(t.Now() - before)
				}
			} else {
				if err := tbl.Insert(s, k, uint64(i)); err != nil {
					panic(err)
				}
				if i >= warm {
					res.Update.AddCycles(t.Now() - before)
				}
			}
		}
		end = t.Now() - start
	})
	m.Run(sys)

	secs := sys.CyclesToSeconds(end)
	if secs > 0 {
		res.Mops = float64(o.Ops) / secs / 1e6
	}
	return res
}

// ycsbUnits returns one unit per device (the table on PM, then the
// DRAM baseline).
func ycsbUnits(o Options) []Unit {
	units := make([]Unit, 0, 2)
	for _, onDRAM := range []bool{false, true} {
		name := "PM"
		if onDRAM {
			name = "DRAM"
		}
		units = append(units, o.unit("ycsb", name, func(m *machine.Meter) UnitResult {
			opts := YCSBOptions{
				TableKeys: o.scale(1_000_000, 300_000),
				Ops:       o.scale(30_000, 8_000),
				OnDRAM:    onDRAM,
			}
			results := ycsb(m, opts)
			return UnitResult{Data: results, Text: FormatYCSB(opts, results)}
		}))
	}
	return units
}

// FormatYCSB renders the workload comparison with latency percentiles.
func FormatYCSB(o YCSBOptions, results []YCSBResult) string {
	o.defaults()
	dev := "PM"
	if o.OnDRAM {
		dev = "DRAM"
	}
	header := []string{"workload", "Mops", "read p50", "read p99", "update p50", "update p99"}
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{
			r.Workload.String(), F(r.Mops),
			F1(r.Read.P50()), F1(r.Read.P99()),
			F1(r.Update.P50()), F1(r.Update.P99()),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "YCSB mixes on CCEH (%s, %s, zipf %.2f) — extension beyond the paper's load phase\n",
		dev, o.Gen, o.Theta)
	b.WriteString(Table(header, rows))
	return b.String()
}
