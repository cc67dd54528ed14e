package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/btree"
	"optanesim/internal/cceh"
	"optanesim/internal/machine"
	"optanesim/internal/pmem"
	"optanesim/internal/radix"
	"optanesim/internal/stats"
	"optanesim/internal/workload"
)

// IndexResult is one persistent index's measured profile.
type IndexResult struct {
	Name           string
	Insert, Lookup *stats.Sample
}

// IndexesOptions scales the comparison.
type IndexesOptions struct {
	Gen Gen
	// PrebuildKeys sizes each index before measurement.
	PrebuildKeys int
	// Ops is the measured operation count per phase.
	Ops int
}

func (o *IndexesOptions) defaults() {
	if o.Gen == 0 {
		o.Gen = G1
	}
	if o.PrebuildKeys <= 0 {
		o.PrebuildKeys = 600_000
	}
	if o.Ops <= 0 {
		o.Ops = 4_000
	}
}

// Indexes compares the repository's three persistent indexes — CCEH
// (§4.1), the FAST & FAIR-style B+-tree in both §4.2 modes, and the
// WORT-style radix tree — on identical insert/lookup batches. This is
// the "evaluating persistent indexes" exercise of the paper's related
// work (Lersch et al.), run on the simulated DIMM: it shows how each
// structure's access pattern (probe count, pointer-chase depth, persist
// pattern) maps onto the §3 buffer mechanics.
func Indexes(o IndexesOptions) []IndexResult { return indexes(new(Meter), o) }

func indexes(m *Meter, o IndexesOptions) []IndexResult {
	o.defaults()
	return []IndexResult{
		indexRun(m, o, "cceh", func(n int) uint64 { return cceh.HeapFor(n) }, func(s *pmem.Session, h *pmem.Heap) indexOps {
			tbl := cceh.New(s, h, 8)
			return indexOps{
				bindInsert: func(ts *pmem.Session) func(k, v uint64) error {
					return func(k, v uint64) error { return tbl.Insert(ts, k, v) }
				},
				lookup: func(ts *pmem.Session, k uint64) bool { _, ok := tbl.Lookup(ts, k); return ok },
			}
		}),
		indexRun(m, o, "btree (in-place)", btreeHeapFor, func(s *pmem.Session, h *pmem.Heap) indexOps {
			tr := btree.New(s, h, btree.InPlace)
			return indexOps{
				bindInsert: func(ts *pmem.Session) func(k, v uint64) error {
					w := tr.NewWriter(ts, nil)
					return func(k, v uint64) error { return tr.Insert(w, k, v) }
				},
				lookup: func(ts *pmem.Session, k uint64) bool { _, ok := tr.Get(ts, k); return ok },
			}
		}),
		indexRun(m, o, "btree (redo)", btreeHeapFor, func(s *pmem.Session, h *pmem.Heap) indexOps {
			tr := btree.New(s, h, btree.RedoLog)
			return indexOps{
				bindInsert: func(ts *pmem.Session) func(k, v uint64) error {
					w := tr.NewWriter(ts, nil)
					return func(k, v uint64) error { return tr.Insert(w, k, v) }
				},
				lookup: func(ts *pmem.Session, k uint64) bool { _, ok := tr.Get(ts, k); return ok },
			}
		}),
		indexRun(m, o, "radix (WORT)", func(n int) uint64 { return radix.HeapFor(n) }, func(s *pmem.Session, h *pmem.Heap) indexOps {
			tr := radix.New(s, h)
			return indexOps{
				bindInsert: func(ts *pmem.Session) func(k, v uint64) error {
					return func(k, v uint64) error { return tr.Insert(ts, k, v) }
				},
				lookup: func(ts *pmem.Session, k uint64) bool { _, ok := tr.Get(ts, k); return ok },
			}
		}),
	}
}

// indexOps abstracts one index for the harness: bindInsert couples the
// index's writer state to a session once per phase.
type indexOps struct {
	bindInsert func(s *pmem.Session) func(k, v uint64) error
	lookup     func(s *pmem.Session, k uint64) bool
}

// btreeHeapFor sizes a B+-tree heap for n keys.
func btreeHeapFor(n int) uint64 { return uint64(n)*48 + (64 << 20) }

func indexRun(m *Meter, o IndexesOptions, name string, heapFor func(int) uint64, build func(*pmem.Session, *pmem.Heap) indexOps) IndexResult {
	sys := m.System(o.Gen.Config(1))
	h := pmem.NewPMHeap(heapFor(o.PrebuildKeys + 4*o.Ops))
	free := pmem.NewFreeSession(h)
	ops := build(free, h)

	prebuild := workload.SequenceKeys(1<<40, o.PrebuildKeys)
	freeInsert := ops.bindInsert(free)
	for i, k := range prebuild {
		if err := freeInsert(k, uint64(i)); err != nil {
			panic(fmt.Sprintf("indexes: prebuild %s: %v", name, err))
		}
	}

	res := IndexResult{Name: name, Insert: stats.New(), Lookup: stats.New()}
	insertKeys := workload.SequenceKeys(1<<41, o.Ops)
	sys.Go("ix", 0, false, func(t *machine.Thread) {
		s := pmem.NewSession(t, h)
		timedInsert := ops.bindInsert(s)
		for i, k := range insertKeys {
			before := t.Now()
			if err := timedInsert(k, uint64(i)); err != nil {
				panic(err)
			}
			res.Insert.AddCycles(t.Now() - before)
		}
		// Lookups of random prebuilt keys (cold segments).
		lookupKeys := prebuild[len(prebuild)-o.Ops:]
		for _, k := range lookupKeys {
			before := t.Now()
			if !ops.lookup(s, k) {
				panic("indexes: lookup of prebuilt key failed")
			}
			res.Lookup.AddCycles(t.Now() - before)
		}
	})
	m.Run(sys)
	return res
}

// indexesUnits returns the experiment's single unit.
func indexesUnits(o Options) []Unit {
	return []Unit{o.unit("indexes", "", func(m *Meter) UnitResult {
		opts := IndexesOptions{
			PrebuildKeys: o.scale(600_000, 200_000),
			Ops:          o.scale(4_000, 1_500),
		}
		results := indexes(m, opts)
		return UnitResult{Data: results, Text: FormatIndexes(opts, results)}
	})}
}

// FormatIndexes renders the comparison.
func FormatIndexes(o IndexesOptions, results []IndexResult) string {
	o.defaults()
	header := []string{"index", "insert mean", "insert p99", "lookup mean", "lookup p99"}
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{
			r.Name,
			F1(r.Insert.Mean()), F1(r.Insert.P99()),
			F1(r.Lookup.Mean()), F1(r.Lookup.P99()),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Persistent index comparison (%s, %d prebuilt keys; cycles/op)\n", o.Gen, o.PrebuildKeys)
	b.WriteString(Table(header, rows))
	return b.String()
}
