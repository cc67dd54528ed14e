package optanesim

import "testing"

// TestPublicAPIQuickstart exercises the documented quick-start flow.
func TestPublicAPIQuickstart(t *testing.T) {
	sys := MustNewSystem(G1Config(1))
	heap := NewPMHeap(1 << 20)
	a := heap.Alloc(4096, 256)
	var end Cycles
	sys.Go("demo", 0, false, func(th *Thread) {
		s := NewSession(th, heap)
		s.Store64(a, 42)
		s.Persist(a, 8)
		if s.Load64(a) != 42 {
			t.Error("readback failed")
		}
	})
	end = sys.Run()
	if end == 0 {
		t.Fatal("no simulated time elapsed")
	}
	if sys.PMCounters().IMCWriteBytes == 0 {
		t.Fatal("persist produced no PM write traffic")
	}
}

// TestPublicAPIDataStructures drives both case-study structures through
// the facade.
func TestPublicAPIDataStructures(t *testing.T) {
	heap := NewPMHeap(CCEHHeapFor(5000))
	free := NewFreeSession(heap)
	table := NewCCEH(free, heap, 4)
	keys := SequenceKeys(1, 5000)
	if n := table.InsertBatch(free, keys, 0); n != 5000 {
		t.Fatalf("inserted %d of 5000", n)
	}
	if v, ok := table.Lookup(free, keys[123]); !ok || v != keys[123]^0xABCD {
		t.Fatalf("lookup failed: %d %v", v, ok)
	}

	theap := NewPMHeap(32 << 20)
	tfree := NewFreeSession(theap)
	tree := NewBTree(tfree, theap, BTreeRedoLog)
	w := tree.NewWriter(tfree, nil)
	for _, k := range keys[:2000] {
		if err := tree.Insert(w, k, k+7); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := tree.Get(tfree, keys[55]); !ok || v != keys[55]+7 {
		t.Fatalf("btree get failed: %d %v", v, ok)
	}
}

// TestGenerationsDiffer asserts the headline G1/G2 architectural deltas
// are visible through the public profiles.
func TestGenerationsDiffer(t *testing.T) {
	g1, g2 := OptaneG1(), OptaneG2()
	if g1.ReadBufLines >= g2.ReadBufLines {
		t.Fatal("G2 read buffer must be larger (22 KB vs 16 KB)")
	}
	if g1.PeriodicWritebackCycles == 0 || g2.PeriodicWritebackCycles != 0 {
		t.Fatal("periodic write-back must be G1-only")
	}
	c1, c2 := G1Config(1), G2Config(1)
	if !c1.CPU.CLWBInvalidates || c2.CPU.CLWBInvalidates {
		t.Fatal("clwb invalidation must be G1-only")
	}
}

// TestPrefetchToggles verifies the facade's prefetcher configs.
func TestPrefetchToggles(t *testing.T) {
	if !AllPrefetchers().Any() {
		t.Fatal("AllPrefetchers disabled")
	}
	if NoPrefetchers().Any() {
		t.Fatal("NoPrefetchers enabled something")
	}
}
