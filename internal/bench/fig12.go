package bench

import (
	"fmt"
	"slices"
	"strings"

	"optanesim/internal/btree"
	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/pmem"
	"optanesim/internal/sim"
	"optanesim/internal/workload"
)

// Fig12Point is one x-position of Fig. 12: B+-tree insert performance
// for both update strategies at one thread count.
type Fig12Point struct {
	Threads int
	// InPlaceCycles / RedoCycles are average cycles per insert.
	InPlaceCycles, RedoCycles float64
	// InPlaceMops / RedoMops are throughput in Mops/s.
	InPlaceMops, RedoMops float64
}

// Fig12Options scales the experiment.
type Fig12Options struct {
	Gen Gen
	// Threads are the x positions; nil uses 1..9 odd counts.
	Threads []int
	// PrebuildKeys sizes the tree before measurement.
	PrebuildKeys int
	// InsertsPerThread is the measured insert count per thread.
	InsertsPerThread int
}

func (o *Fig12Options) defaults() {
	if o.Gen == 0 {
		o.Gen = G1
	}
	if o.Threads == nil {
		o.Threads = []int{1, 3, 5, 7, 9}
	}
	if o.PrebuildKeys <= 0 {
		o.PrebuildKeys = 800_000
	}
	if o.InsertsPerThread <= 0 {
		o.InsertsPerThread = 4_000
	}
}

// Fig12 reproduces §4.2's Fig. 12: insert latency and throughput of the
// FAST & FAIR-style B+-tree with in-place (per-shift persistence
// barrier) versus out-of-place (redo-log) updates, on a single DIMM.
func Fig12(o Fig12Options) []Fig12Point { return fig12(new(machine.Meter), o) }

func fig12(m *machine.Meter, o Fig12Options) []Fig12Point {
	o.defaults()
	// One PM heap serves every cell, sized for the largest. Nodes are
	// 1 KB with 60 slots and split into halves of 30, so a key takes at
	// most ~35 B (random keys settle near 25 B); the 64 MB covers the
	// writers' redo logs with room to spare.
	total := o.PrebuildKeys + slices.Max(o.Threads)*o.InsertsPerThread
	heap := pmem.NewPMHeap(uint64(total)*48 + (64 << 20))
	inPlace := fig12Prebuild(heap, o.PrebuildKeys, btree.InPlace)
	redo := fig12Prebuild(heap, o.PrebuildKeys, btree.RedoLog)

	points := make([]Fig12Point, 0, len(o.Threads))
	for _, th := range o.Threads {
		inCyc, inMops := fig12Run(m, o, th, heap, inPlace)
		rdCyc, rdMops := fig12Run(m, o, th, heap, redo)
		points = append(points, Fig12Point{
			Threads:       th,
			InPlaceCycles: inCyc, RedoCycles: rdCyc,
			InPlaceMops: inMops, RedoMops: rdMops,
		})
	}
	return points
}

// fig12Tree is one mode's prebuilt tree: the heap as the build left it
// and the superblock that reopens the tree.
type fig12Tree struct {
	mode  btree.Mode
	mark  []byte
	super mem.Addr
}

// fig12Prebuild empties heap and builds a tree of n keys on it through a
// free session. A free session charges no cycles, so the heap's bytes
// and bump pointer are all the build leaves behind: rewinding the heap
// to the returned mark gives a cell the state a fresh build would.
func fig12Prebuild(heap *pmem.Heap, n int, mode btree.Mode) fig12Tree {
	heap.Rewind(nil)
	free := pmem.NewFreeSession(heap)
	tr := btree.New(free, heap, mode)
	fw := tr.NewWriter(free, nil)
	for _, k := range workload.SequenceKeys(1<<40, n) {
		if err := tr.Insert(fw, k, k); err != nil {
			panic(err)
		}
	}
	return fig12Tree{mode: mode, mark: heap.Mark(), super: tr.Super()}
}

func fig12Run(m *machine.Meter, o Fig12Options, threads int, heap *pmem.Heap, pre fig12Tree) (cyclesPerInsert, mops float64) {
	sys := m.System(o.Gen.Config(threads))

	heap.Rewind(pre.mark)
	dramHeap := pmem.NewDRAMHeap(uint64(threads+1)*btree.LogEntries*64 + (1 << 20))
	tr := btree.Open(pmem.NewFreeSession(heap), heap, pre.mode, pre.super)

	var busy sim.Cycles
	var inserted int
	var endMax sim.Cycles
	for w := 0; w < threads; w++ {
		keys := workload.SequenceKeys(1<<41|uint64(w)<<32, o.InsertsPerThread)
		sys.Go(fmt.Sprintf("writer-%d", w), w, false, func(t *machine.Thread) {
			s := pmem.NewSession(t, heap, dramHeap)
			wr := tr.NewWriter(s, dramHeap)
			start := t.Now()
			for _, k := range keys {
				if err := tr.Insert(wr, k, k^0x55AA); err != nil {
					panic(err)
				}
			}
			busy += t.Now() - start
			if t.Now() > endMax {
				endMax = t.Now()
			}
			inserted += len(keys)
		})
	}
	m.Run(sys)

	cyclesPerInsert = float64(busy) / float64(inserted)
	secs := sys.CyclesToSeconds(endMax)
	if secs > 0 {
		mops = float64(inserted) / secs / 1e6
	}
	return cyclesPerInsert, mops
}

// fig12Units returns one unit per generation.
func fig12Units(o Options) []Unit {
	units := make([]Unit, 0, 2)
	for _, gen := range []Gen{G1, G2} {
		units = append(units, o.unit("fig12", gen.String(), func(m *machine.Meter) UnitResult {
			pts := fig12(m, Fig12Options{
				Gen:              gen,
				PrebuildKeys:     o.scale(800_000, 300_000),
				InsertsPerThread: o.scale(4_000, 1_500),
			})
			return UnitResult{Data: pts, Text: FormatFig12(gen, pts)}
		}))
	}
	return units
}

// FormatFig12 renders one generation's Fig. 12 panels.
func FormatFig12(gen Gen, points []Fig12Point) string {
	header := []string{"threads", "lat(in-place)", "lat(redo)", "Mops(in-place)", "Mops(redo)"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Threads),
			F1(p.InPlaceCycles), F1(p.RedoCycles),
			F(p.InPlaceMops), F(p.RedoMops),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: FAST & FAIR B+-tree inserts, single DIMM (%s)\n", gen)
	b.WriteString(Table(header, rows))
	return b.String()
}
