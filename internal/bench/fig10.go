package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/cceh"
	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/pmem"
	"optanesim/internal/sim"
	"optanesim/internal/workload"
)

// Fig10Point is one x-position of Fig. 10 for one device: CCEH insert
// latency and throughput with and without the helper-thread prefetcher.
type Fig10Point struct {
	Workers int
	// BaseCycles / HelpCycles are average cycles per insert.
	BaseCycles, HelpCycles float64
	// BaseMops / HelpMops are throughput in million ops/second.
	BaseMops, HelpMops float64
}

// Fig10Options scales the experiment.
type Fig10Options struct {
	Gen Gen
	// OnDRAM places the hash table in DRAM (panels c and d).
	OnDRAM bool
	// DIMMs is the PM interleave width (the paper's Fig. 10 uses 1).
	DIMMs int
	// Workers are the x positions; nil uses 1..10.
	Workers []int
	// PrebuildKeys sizes the table before measurement.
	PrebuildKeys int
	// TotalInserts is the measured insert count, split across workers.
	TotalInserts int
}

func (o *Fig10Options) defaults() {
	if o.Gen == 0 {
		o.Gen = G1
	}
	if o.DIMMs <= 0 {
		o.DIMMs = 1
	}
	if o.Workers == nil {
		for w := 1; w <= 10; w++ {
			o.Workers = append(o.Workers, w)
		}
	}
	if o.PrebuildKeys <= 0 {
		o.PrebuildKeys = 2_000_000
	}
	if o.TotalInserts <= 0 {
		o.TotalInserts = 12_000
	}
}

// Fig10 reproduces §4.1's Fig. 10: CCEH insert latency and throughput
// versus worker count, with and without a speculative helper thread
// bound to each worker's sibling hyperthread, on PM or DRAM.
func Fig10(o Fig10Options) []Fig10Point { return fig10(new(machine.Meter), o) }

func fig10(m *machine.Meter, o Fig10Options) []Fig10Point {
	o.defaults()
	points := make([]Fig10Point, 0, len(o.Workers))
	for _, w := range o.Workers {
		shards := fig10Prebuild(o, w)
		baseCyc, baseMops := fig10Run(m, o, shards, false)
		helpCyc, helpMops := fig10Run(m, o, shards, true)
		points = append(points, Fig10Point{
			Workers:    w,
			BaseCycles: baseCyc, HelpCycles: helpCyc,
			BaseMops: baseMops, HelpMops: helpMops,
		})
	}
	return points
}

// fig10Shard is one worker's private table shard as prebuilt: its heap,
// the heap's Mark after the prebuild, the table's superblock and the
// worker→helper progress block.
type fig10Shard struct {
	heap  *pmem.Heap
	mark  *pmem.Mark
	super mem.Addr
	prog  mem.Addr
}

// fig10Prebuild builds one worker count's shards, once for its base and
// its helper cell. Each worker owns a private table shard carved from
// one parent heap (disjoint address ranges, private bump pointers), and
// the worker→helper pacing flows through a progress cacheline in
// simulated memory (cceh.HelperPlan).
func fig10Prebuild(o Fig10Options, workers int) []fig10Shard {
	perWorker := o.TotalInserts / workers
	prebuildPer := o.PrebuildKeys / workers
	shardBytes := cceh.HeapFor(prebuildPer+4*perWorker) + cceh.ProgressBytes + mem.XPLineSize
	var parent *pmem.Heap
	if o.OnDRAM {
		parent = pmem.NewDRAMHeap(uint64(workers) * (shardBytes + mem.XPLineSize))
	} else {
		parent = pmem.NewPMHeap(uint64(workers) * (shardBytes + mem.XPLineSize))
	}
	shards := make([]fig10Shard, workers)
	for w := range shards {
		shard := parent.Carve(shardBytes, mem.XPLineSize)
		free := pmem.NewFreeSession(shard)
		tbl := cceh.New(free, shard, 8)
		tbl.InsertBatch(free, workload.SequenceKeys(1<<40|uint64(w)<<32, prebuildPer), 0)
		prog := shard.Alloc(cceh.ProgressBytes, mem.CachelineSize)
		shards[w] = fig10Shard{heap: shard, mark: shard.Mark(), super: tbl.Super(), prog: prog}
	}
	return shards
}

// fig10Run runs one cell on the shards as prebuilt and then rewinds each
// to its mark, so the next cell starts from the prebuild too (see
// fig12Prebuild). Each shard's mark is its heap's live mark, so the
// rewind copies back only the lines the cell wrote.
func fig10Run(m *machine.Meter, o Fig10Options, shards []fig10Shard, helper bool) (cyclesPerInsert, mops float64) {
	workers := len(shards)
	mcfg := o.Gen.Config(workers)
	mcfg.PMDIMMs = o.DIMMs
	sys := m.System(mcfg)

	perWorker := o.TotalInserts / workers
	warmPer := perWorker / 8
	var busy sim.Cycles
	var inserted int
	var endMax sim.Cycles
	for w, sh := range shards {
		shard, prog := sh.heap, sh.prog
		tbl := cceh.Open(pmem.NewFreeSession(shard), shard, sh.super)

		warm := workload.SequenceKeys(1<<41|uint64(w)<<32, warmPer)
		keys := workload.SequenceKeys(1<<42|uint64(w)<<32, perWorker)
		all := append(append([]uint64{}, warm...), keys...)
		sys.Go(fmt.Sprintf("worker-%d", w), w, false, func(t *machine.Thread) {
			s := pmem.NewSession(t, shard)
			var start sim.Cycles
			for i, k := range all {
				s.Store64(prog, uint64(i))
				if i == warmPer {
					start = t.Now()
				}
				s.Tag(cceh.TagMisc)
				s.Compute(cceh.YCSBClientCycles)
				if err := tbl.Insert(s, k, k^0xABCD); err != nil {
					panic(err)
				}
			}
			s.Store64(prog+8, 1)
			busy += t.Now() - start
			if t.Now() > endMax {
				endMax = t.Now()
			}
			inserted += perWorker
		})
		if helper {
			plan := tbl.PrefetchPlan(all)
			sys.Go(fmt.Sprintf("helper-%d", w), w, false, func(t *machine.Thread) {
				s := pmem.NewSession(t, shard)
				cceh.HelperPlan(s, plan, prog)
			})
		}
	}
	m.Run(sys)
	for _, sh := range shards {
		sh.heap.Rewind(sh.mark)
	}

	cyclesPerInsert = float64(busy) / float64(inserted)
	secs := sys.CyclesToSeconds(endMax)
	if secs > 0 {
		mops = float64(inserted) / secs / 1e6
	}
	return cyclesPerInsert, mops
}

// fig10Units returns three units: the paper's single-DIMM PM panel,
// the DRAM panel, and the 6-DIMM interleave the paper discusses in
// prose (single- and 6-DIMM results are similar at low worker counts;
// the fade at high counts is a few-DIMM effect, E7).
func fig10Units(o Options) []Unit {
	base := Fig10Options{
		PrebuildKeys: o.scale(2_000_000, 500_000),
		TotalInserts: o.scale(12_000, 5_000),
	}
	if o.Quick {
		base.Workers = []int{1, 2, 5, 10}
	}
	cells := []struct {
		name   string
		onDRAM bool
		dimms  int
		prefix string
	}{
		{"PM", false, 0, ""},
		{"DRAM", true, 0, ""},
		{"PM 6-DIMM", false, 6, "[6 interleaved DIMMs]\n"},
	}
	units := make([]Unit, 0, len(cells))
	for _, cell := range cells {
		units = append(units, o.unit("fig10", cell.name, func(m *machine.Meter) UnitResult {
			opts := base
			opts.OnDRAM = cell.onDRAM
			opts.DIMMs = cell.dimms
			pts := fig10(m, opts)
			return UnitResult{Data: pts, Text: cell.prefix + FormatFig10(opts, pts)}
		}))
	}
	return units
}

// FormatFig10 renders one device panel pair of Fig. 10.
func FormatFig10(o Fig10Options, points []Fig10Point) string {
	dev := "PM"
	if o.OnDRAM {
		dev = "DRAM"
	}
	header := []string{"workers", "lat(base)", "lat(helper)", "Mops(base)", "Mops(helper)"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Workers),
			F1(p.BaseCycles), F1(p.HelpCycles),
			F(p.BaseMops), F(p.HelpMops),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: CCEH with helper-thread prefetching on %s (%s)\n", dev, o.Gen)
	b.WriteString(Table(header, rows))
	return b.String()
}
