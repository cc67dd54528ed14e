// Btree: the §4.2 case study as an application — a FAST & FAIR-style
// persistent B+-tree loaded with sorted-insert traffic, comparing
// in-place updates (persistence barrier per key shift) against
// out-of-place redo logging, on both DCPMM generations, and
// demonstrating crash recovery from the redo log.
package main

import (
	"fmt"

	"optanesim"
)

const (
	prebuild = 200_000
	inserts  = 3_000
)

func load(cfg optanesim.Config, mode optanesim.BTreeMode) float64 {
	sys := optanesim.MustNewSystem(cfg)
	heap := optanesim.NewPMHeap(uint64(prebuild+inserts)*48 + (32 << 20))
	free := optanesim.NewFreeSession(heap)
	tree := optanesim.NewBTree(free, heap, mode)
	fw := tree.NewWriter(free, nil)
	for _, k := range optanesim.SequenceKeys(1<<40, prebuild) {
		if err := tree.Insert(fw, k, k); err != nil {
			panic(err)
		}
	}

	keys := optanesim.SequenceKeys(1<<41, inserts)
	var busy optanesim.Cycles
	sys.Go("writer", 0, false, func(t *optanesim.Thread) {
		s := optanesim.NewSession(t, heap)
		w := tree.NewWriter(s, nil)
		start := t.Now()
		for _, k := range keys {
			if err := tree.Insert(w, k, k^0xBEEF); err != nil {
				panic(err)
			}
		}
		busy = t.Now() - start
	})
	sys.Run()

	for _, k := range keys {
		if v, found := tree.Get(free, k); !found || v != k^0xBEEF {
			panic("verification failed")
		}
	}
	return float64(busy) / float64(inserts)
}

func main() {
	for _, gen := range []struct {
		name string
		cfg  optanesim.Config
	}{{"G1", optanesim.G1Config(1)}, {"G2", optanesim.G2Config(1)}} {
		inPlace := load(gen.cfg, optanesim.BTreeInPlace)
		redo := load(gen.cfg, optanesim.BTreeRedoLog)
		fmt.Printf("%s: insert latency in-place %7.0f cycles, redo-log %7.0f cycles (%+.1f%%)\n",
			gen.name, inPlace, redo, 100*(redo-inPlace)/inPlace)
	}
	fmt.Println("\nOn G1, avoiding read-after-persist on shifted cachelines pays for the")
	fmt.Println("doubled PM writes; on G2, clwb keeps lines cached and the benefit vanishes.")

	// Crash recovery: a committed-but-unapplied redo transaction is
	// replayed; an uncommitted one is discarded.
	heap := optanesim.NewPMHeap(16 << 20)
	free := optanesim.NewFreeSession(heap)
	tree := optanesim.NewBTree(free, heap, optanesim.BTreeRedoLog)
	w := tree.NewWriter(free, nil)
	for _, k := range []uint64{10, 30, 50} {
		if err := tree.Insert(w, k, k*10); err != nil {
			panic(err)
		}
	}
	replayed := w.Recover()
	fmt.Printf("\nrecovery demo: clean shutdown replays %d entries (log already retired)\n", replayed)
	if v, ok := tree.Get(free, 30); ok {
		fmt.Printf("tree intact after recovery: Get(30) = %d\n", v)
	}
}
