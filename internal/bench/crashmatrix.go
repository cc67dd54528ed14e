// Crash-matrix experiment: power-failure injection over every
// persistent index. Each unit drives a seeded operation trace against
// one structure under the crash.Tracker, enumerates the survivable
// post-crash images at sampled cut points (including WPQ-reorder and
// torn-cacheline variants), and runs the structure's own recovery path
// plus invariant checks on every image. A unit panics on the first
// violation — a crash-consistency bug in the simulated structures is a
// correctness failure of the repository, not a data point.

package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/btree"
	"optanesim/internal/cceh"
	"optanesim/internal/crash"
	"optanesim/internal/kvstore"
	"optanesim/internal/machine"
	"optanesim/internal/pmem"
	"optanesim/internal/radix"
	"optanesim/internal/sim"
)

// CrashMatrixRecord is the structured result of one structure's matrix.
type CrashMatrixRecord struct {
	Structure string `json:"structure"`
	// Seed is the crash-point/state sampling seed the unit ran with
	// (Options.Seed+i when overridden from the CLI, the fixed built-in
	// default otherwise), recorded so any run can be reproduced.
	Seed       uint64 `json:"seed"`
	Ops        int    `json:"ops"`
	Events     int    `json:"events"`
	Points     int    `json:"points"`
	States     int    `json:"states"`
	Violations int    `json:"violations"`
}

// crashTraceOp is one mutation of a crash-matrix trace.
type crashTraceOp struct {
	del      bool
	key, val uint64
}

// crashTrace builds the deterministic mixed trace every unit replays.
func crashTrace(seed uint64, n, keyspace int, delOneIn int) []crashTraceOp {
	r := sim.NewRand(seed)
	ops := make([]crashTraceOp, 0, n)
	for i := 0; i < n; i++ {
		k := uint64(r.Intn(keyspace) + 1)
		if delOneIn > 0 && r.Intn(delOneIn) == 0 {
			ops = append(ops, crashTraceOp{del: true, key: k})
		} else {
			ops = append(ops, crashTraceOp{key: k, val: r.Uint64()%100000 + 1})
		}
	}
	return ops
}

func crashExpected(ops []crashTraceOp, n int) map[uint64]uint64 {
	m := make(map[uint64]uint64)
	for _, o := range ops[:n] {
		if o.del {
			delete(m, o.key)
		} else {
			m[o.key] = o.val
		}
	}
	return m
}

// checkCommitted verifies every committed key on a recovered image via
// get, tolerating the one op in flight at the cut.
func checkCommitted(ops []crashTraceOp, n int, get func(key uint64) (uint64, bool)) error {
	expect := crashExpected(ops, n)
	var pending *crashTraceOp
	if n < len(ops) {
		pending = &ops[n]
	}
	for k, v := range expect {
		got, ok := get(k)
		if pending != nil && pending.key == k {
			if pending.del {
				if ok && got != v {
					return fmt.Errorf("key %d = %d mid-delete, want %d or absent", k, got, v)
				}
			} else {
				if !ok {
					return fmt.Errorf("key %d lost mid-overwrite", k)
				}
				if got != v && got != pending.val {
					return fmt.Errorf("key %d = %d, want %d or pending %d", k, got, v, pending.val)
				}
			}
			continue
		}
		if !ok {
			return fmt.Errorf("committed key %d missing", k)
		}
		if got != v {
			return fmt.Errorf("committed key %d = %d, want %d", k, got, v)
		}
	}
	return nil
}

// runCrashUnit executes a traced run and renders the outcome, panicking
// on violations so the unit fails loudly through the runner. The
// sampling seed rides along in both the record and the failure message
// so a sampled violation is reproducible (pmsim -crashmatrix -seed N).
func runCrashUnit(structure string, seed uint64, ops int, outcome crash.Outcome) UnitResult {
	if outcome.Failed() {
		panic(fmt.Sprintf("crashmatrix/%s (seed %d): %d violations, first: %v",
			structure, seed, len(outcome.Violations), outcome.Violations[0]))
	}
	rec := CrashMatrixRecord{
		Structure: structure,
		Seed:      seed,
		Ops:       ops,
		Events:    outcome.Events,
		Points:    outcome.Points,
		States:    outcome.States,
	}
	var b strings.Builder
	fmt.Fprintf(&b, "crashmatrix %-8s  %5d ops  %6d events  %4d crash points  %5d states  0 violations  (seed %d)",
		structure, rec.Ops, rec.Events, rec.Points, rec.States, rec.Seed)
	return UnitResult{Data: rec, Text: b.String()}
}

func crashmatrixUnits(o Options) []Unit {
	nOps := o.scale(400, 80)
	pts := o.scale(60, 20)
	seeds := [4]uint64{
		o.matrixSeed(11, 0), o.matrixSeed(12, 1), o.matrixSeed(13, 2), o.matrixSeed(14, 3),
	}
	return []Unit{
		{Experiment: "crashmatrix", Name: "btree", body: func(*machine.Meter) UnitResult {
			ops := crashTrace(41, nOps, 150, 5)
			h := pmem.NewPMHeap(1 << 20)
			s := pmem.NewFreeSession(h)
			tr := btree.New(s, h, btree.RedoLog)
			w := tr.NewWriter(s, nil)
			tk := crash.NewTracker(h)
			done := 0
			tk.SetMetaFunc(func() any { return done })
			tk.Attach(s)
			for _, op := range ops {
				if op.del {
					tr.Delete(w, op.key)
				} else if err := tr.Insert(w, op.key, op.val); err != nil {
					panic(err)
				}
				done++
			}
			super, logBase, flagAddr := tr.Super(), w.LogBase(), w.FlagAddr()
			out := tk.Check(crash.Options{MaxPoints: pts, MaxStatesPerPoint: 6, Seed: seeds[0]},
				func(img *pmem.Heap, meta any) error {
					n := meta.(int)
					s2 := pmem.NewFreeSession(img)
					t2 := btree.Open(s2, img, btree.RedoLog, super)
					t2.OpenWriter(s2, logBase, flagAddr).Recover()
					t2.Recover(s2)
					if err := t2.Validate(s2); err != nil {
						return err
					}
					return checkCommitted(ops, n, func(k uint64) (uint64, bool) { return t2.Get(s2, k) })
				})
			return runCrashUnit("btree", seeds[0], len(ops), out)
		}},
		{Experiment: "crashmatrix", Name: "cceh", body: func(*machine.Meter) UnitResult {
			ops := crashTrace(42, nOps*3, nOps*2, 8)
			h := pmem.NewPMHeap(1 << 21)
			s := pmem.NewFreeSession(h)
			tb := cceh.New(s, h, 0)
			tk := crash.NewTracker(h)
			done := 0
			tk.SetMetaFunc(func() any { return done })
			tk.Attach(s)
			for _, op := range ops {
				if op.del {
					tb.Delete(s, op.key)
				} else if err := tb.Insert(s, op.key, op.val); err != nil {
					panic(err)
				}
				done++
			}
			super := tb.Super()
			out := tk.Check(crash.Options{MaxPoints: pts, MaxStatesPerPoint: 6, Seed: seeds[1]},
				func(img *pmem.Heap, meta any) error {
					n := meta.(int)
					s2 := pmem.NewFreeSession(img)
					t2 := cceh.Open(s2, img, super)
					t2.Recover(s2)
					if err := t2.Validate(s2); err != nil {
						return err
					}
					return checkCommitted(ops, n, func(k uint64) (uint64, bool) { return t2.Lookup(s2, k) })
				})
			return runCrashUnit("cceh", seeds[1], len(ops), out)
		}},
		{Experiment: "crashmatrix", Name: "radix", body: func(*machine.Meter) UnitResult {
			ops := crashTrace(43, nOps, 300, 6)
			h := pmem.NewPMHeap(1 << 22)
			s := pmem.NewFreeSession(h)
			tr := radix.New(s, h)
			tk := crash.NewTracker(h)
			done := 0
			tk.SetMetaFunc(func() any { return done })
			tk.Attach(s)
			for _, op := range ops {
				if op.del {
					tr.Delete(s, op.key)
				} else if err := tr.Insert(s, op.key, op.val); err != nil {
					panic(err)
				}
				done++
			}
			root := tr.Root()
			out := tk.Check(crash.Options{MaxPoints: pts, MaxStatesPerPoint: 6, Seed: seeds[2]},
				func(img *pmem.Heap, meta any) error {
					n := meta.(int)
					s2 := pmem.NewFreeSession(img)
					t2 := radix.Open(img, root)
					if err := t2.Validate(s2); err != nil {
						return err
					}
					return checkCommitted(ops, n, func(k uint64) (uint64, bool) { return t2.Get(s2, k) })
				})
			return runCrashUnit("radix", seeds[2], len(ops), out)
		}},
		{Experiment: "crashmatrix", Name: "kvstore", body: func(*machine.Meter) UnitResult {
			ops := crashTrace(44, nOps, 200, 0) // puts only
			h := pmem.NewPMHeap(1 << 22)
			s := pmem.NewFreeSession(h)
			st := kvstore.New(s, h, kvstore.Batched, 1<<16)
			tk := crash.NewTracker(h)
			done := 0
			tk.SetMetaFunc(func() any { return done })
			tk.Attach(s)
			for _, op := range ops {
				if err := st.Put(s, op.key, op.val); err != nil {
					panic(err)
				}
				done++
			}
			logBase, logCap := st.LogBase(), st.LogCap()
			out := tk.Check(crash.Options{MaxPoints: pts, MaxStatesPerPoint: 5, Seed: seeds[3]},
				func(img *pmem.Heap, meta any) error {
					n := meta.(int)
					// Batched mode acknowledges up to a batch of puts while
					// still volatile; only the last batch boundary is durable.
					durable := n / kvstore.BatchRecords * kvstore.BatchRecords
					s2 := pmem.NewFreeSession(img)
					r2, err := kvstore.RecoverIndex(s2, img, kvstore.Batched, logBase, logCap, logCap)
					if err != nil {
						return err
					}
					expect := crashExpected(ops, durable)
					later := make(map[uint64]map[uint64]bool)
					end := n + 1
					if end > len(ops) {
						end = len(ops)
					}
					for _, op := range ops[durable:end] {
						if later[op.key] == nil {
							later[op.key] = make(map[uint64]bool)
						}
						later[op.key][op.val] = true
					}
					for k, v := range expect {
						got, ok := r2.Get(s2, k)
						if !ok {
							return fmt.Errorf("durable key %d missing after recovery", k)
						}
						if got != v && !later[k][got] {
							return fmt.Errorf("key %d = %d, want %d (or a later pending value)", k, got, v)
						}
					}
					return nil
				})
			return runCrashUnit("kvstore", seeds[3], len(ops), out)
		}},
	}
}
