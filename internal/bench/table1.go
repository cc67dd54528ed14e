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

// Table1Row is one configuration of Table 1: the time breakdown of CCEH
// key insertion.
type Table1Row struct {
	Threads int
	DIMMs   int
	// Percent of insertion time in each bucket.
	SegmentMeta float64
	Persists    float64
	Misc        float64
}

// Table1Options scales the experiment.
type Table1Options struct {
	Gen Gen
	// PrebuildKeys sizes the table before measurement. The paper loads
	// 16M keys (71k segments), far more metadata than the LLC retains
	// under the load phase's streaming traffic; at simulation scale the
	// same cold-metadata behaviour is obtained by measuring a batch
	// that mostly touches segments not seen since the prebuild.
	PrebuildKeys int
	// InsertsPerThread is the measured insert count per worker; keep it
	// below PrebuildKeys/225 (the segment count) so metadata reads stay
	// cold, as at paper scale.
	InsertsPerThread int
}

func (o *Table1Options) defaults() {
	if o.Gen == 0 {
		o.Gen = G1
	}
	if o.PrebuildKeys <= 0 {
		o.PrebuildKeys = 2_000_000
	}
	if o.InsertsPerThread <= 0 {
		o.InsertsPerThread = 2_500
	}
}

// Table1 reproduces §4.1's Table 1: the time breakdown of CCEH key
// insertion (segment metadata access vs persists vs the rest) for
// {1, 5} threads on {1, 6} interleaved DIMMs.
func Table1(o Table1Options) []Table1Row { return table1(new(machine.Meter), o) }

func table1(m *machine.Meter, o Table1Options) []Table1Row {
	o.defaults()
	var rows []Table1Row
	for _, cfg := range []struct{ threads, dimms int }{
		{1, 1}, {5, 1}, {1, 6}, {5, 6},
	} {
		rows = append(rows, table1Run(m, o, cfg.threads, cfg.dimms))
	}
	return rows
}

func table1Run(m *machine.Meter, o Table1Options, threads, dimms int) Table1Row {
	mcfg := o.Gen.Config(threads)
	mcfg.PMDIMMs = dimms
	sys := m.System(mcfg)

	// Each worker owns a private table shard carved from one parent heap
	// (the fig10 pattern: disjoint address ranges, private bump pointers).
	prebuildPer := o.PrebuildKeys / threads
	shardBytes := cceh.HeapFor(prebuildPer + o.InsertsPerThread*2)
	parent := pmem.NewPMHeap(uint64(threads) * (shardBytes + mem.XPLineSize))

	var seg, per, misc sim.Cycles
	for w := 0; w < threads; w++ {
		shard := parent.Carve(shardBytes, mem.XPLineSize)
		free := pmem.NewFreeSession(shard)
		tbl := cceh.New(free, shard, 8)
		tbl.InsertBatch(free, workload.SequenceKeys(1<<40|uint64(w)<<32, prebuildPer), 0)
		keys := workload.SequenceKeys(1<<41|uint64(w)<<32, o.InsertsPerThread)
		sys.Go(fmt.Sprintf("worker-%d", w), w, false, func(t *machine.Thread) {
			s := pmem.NewSession(t, shard)
			tbl.InsertBatch(s, keys, 0)
			seg += s.TagCycles(cceh.TagSegment)
			per += s.TagCycles(cceh.TagPersist)
			misc += s.TagCycles(cceh.TagMisc)
		})
	}
	m.Run(sys)

	sum := float64(seg + per + misc)
	return Table1Row{
		Threads:     threads,
		DIMMs:       dimms,
		SegmentMeta: 100 * float64(seg) / sum,
		Persists:    100 * float64(per) / sum,
		Misc:        100 * float64(misc) / sum,
	}
}

// table1Units returns the experiment's single unit (the four
// thread/DIMM configurations run inside one sweep).
func table1Units(o Options) []Unit {
	return []Unit{o.unit("table1", "", func(m *machine.Meter) UnitResult {
		rows := table1(m, Table1Options{
			PrebuildKeys:     o.scale(2_000_000, 500_000),
			InsertsPerThread: o.scale(2_500, 1_000),
		})
		return UnitResult{Data: rows, Text: FormatTable1(rows)}
	})}
}

// FormatTable1 renders the rows like the paper's Table 1.
func FormatTable1(rows []Table1Row) string {
	header := []string{"Thread/DIMM", "Segment metadata", "Persists", "Misc."}
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%dT/%d-DIMM", r.Threads, r.DIMMs),
			fmt.Sprintf("%.1f%%", r.SegmentMeta),
			fmt.Sprintf("%.1f%%", r.Persists),
			fmt.Sprintf("%.1f%%", r.Misc),
		})
	}
	var b strings.Builder
	fmt.Fprintln(&b, "Table 1: time breakdown of key insertion in CCEH")
	b.WriteString(Table(header, out))
	return b.String()
}
