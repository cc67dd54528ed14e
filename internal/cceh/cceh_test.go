package cceh

import (
	"testing"
	"testing/quick"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/pmem"
	"optanesim/internal/workload"
)

// newFreeTable builds a table with no timing plane for data-structure
// tests.
func newFreeTable(heapBytes uint64) (*Table, *pmem.Session) {
	h := pmem.NewPMHeap(heapBytes)
	s := pmem.NewFreeSession(h)
	return New(s, h, 2), s
}

func TestInsertLookupSmall(t *testing.T) {
	tbl, s := newFreeTable(64 << 20)
	keys := workload.SequenceKeys(1, 5000)
	for _, k := range keys {
		if err := tbl.Insert(s, k, k+1); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	for _, k := range keys {
		v, ok := tbl.Lookup(s, k)
		if !ok || v != k+1 {
			t.Fatalf("lookup %d: got (%d,%v), want (%d,true)", k, v, ok, k+1)
		}
	}
	if _, ok := tbl.Lookup(s, 0xDEAD_BEEF_0000_0001); ok {
		t.Fatal("lookup of absent key returned ok")
	}
}

func TestInsertOverwrite(t *testing.T) {
	tbl, s := newFreeTable(8 << 20)
	if err := tbl.Insert(s, 42, 1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(s, 42, 2); err != nil {
		t.Fatal(err)
	}
	v, ok := tbl.Lookup(s, 42)
	if !ok || v != 2 {
		t.Fatalf("overwrite: got (%d,%v), want (2,true)", v, ok)
	}
}

func TestZeroKeyRejected(t *testing.T) {
	tbl, s := newFreeTable(8 << 20)
	if err := tbl.Insert(s, 0, 1); err == nil {
		t.Fatal("zero key accepted")
	}
}

func TestSplitsGrowTable(t *testing.T) {
	tbl, s := newFreeTable(128 << 20)
	keys := workload.SequenceKeys(7, 40000)
	for _, k := range keys {
		if err := tbl.Insert(s, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Splits() == 0 {
		t.Fatal("expected segment splits for 40k keys starting from 4 segments")
	}
	if tbl.GlobalDepth(s) < 2 {
		t.Fatalf("global depth %d shrank", tbl.GlobalDepth(s))
	}
	for _, k := range keys {
		if v, ok := tbl.Lookup(s, k); !ok || v != k {
			t.Fatalf("post-split lookup %d: got (%d,%v)", k, v, ok)
		}
	}
}

// TestQuickMapEquivalence checks the table against a Go map with random
// key multisets (property-based).
func TestQuickMapEquivalence(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		tbl, s := newFreeTable(64 << 20)
		ref := make(map[uint64]uint64, n)
		keys := workload.SequenceKeys(seed, n)
		for i, k := range keys {
			v := uint64(i) * 3
			if tbl.Insert(s, k, v) != nil {
				return false
			}
			ref[k] = v
		}
		for k, v := range ref {
			got, ok := tbl.Lookup(s, k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestTimedInsertChargesTags verifies the Table 1 attribution buckets
// fill when running on a simulated thread.
func TestTimedInsertChargesTags(t *testing.T) {
	sys := machine.MustNewSystem(machine.G1Config(1))
	h := pmem.NewPMHeap(64 << 20)
	free := pmem.NewFreeSession(h)
	tbl := New(free, h, 4)
	keys := workload.SequenceKeys(3, 3000)

	var seg, per, misc int64
	sys.Go("worker", 0, false, func(th *machine.Thread) {
		s := pmem.NewSession(th, h)
		for _, k := range keys {
			if err := tbl.Insert(s, k, k); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
		seg = int64(s.TagCycles(TagSegment))
		per = int64(s.TagCycles(TagPersist))
		misc = int64(s.TagCycles(TagMisc))
	})
	sys.Run()
	if seg <= 0 || per <= 0 || misc <= 0 {
		t.Fatalf("tag cycles not charged: seg=%d persist=%d misc=%d", seg, per, misc)
	}
	// All inserted keys must be found afterwards.
	for _, k := range keys {
		if v, ok := tbl.Lookup(free, k); !ok || v != k {
			t.Fatalf("timed insert lost key %d (got %d,%v)", k, v, ok)
		}
	}
}

// TestHelperStaysAhead checks the helper/worker pacing contract through
// the simulated progress block: with the helper replaying its plan on
// the sibling hyperthread, the worker still completes every insert and
// publishes its last index and done flag, and the helper stops on it.
func TestHelperStaysAhead(t *testing.T) {
	sys := machine.MustNewSystem(machine.G1Config(1))
	h := pmem.NewPMHeap(64 << 20)
	free := pmem.NewFreeSession(h)
	tbl := New(free, h, 4)
	keys := workload.SequenceKeys(9, 2000)
	prog := h.Alloc(ProgressBytes, mem.CachelineSize)
	plan := tbl.PrefetchPlan(keys)

	sys.Go("worker", 0, false, func(th *machine.Thread) {
		tbl.InsertBatch(pmem.NewSession(th, h), keys, prog)
	})
	sys.Go("helper", 0, false, func(th *machine.Thread) {
		HelperPlan(pmem.NewSession(th, h), plan, prog)
	})
	sys.Run()
	if next, done := free.Peek64(prog), free.Peek64(prog+8); next != uint64(len(keys)-1) || done != 1 {
		t.Fatalf("progress block = (next %d, done %d), want (%d, 1)", next, done, len(keys)-1)
	}
	for _, k := range keys {
		if _, ok := tbl.Lookup(free, k); !ok {
			t.Fatalf("key %d lost", k)
		}
	}
}

func TestDelete(t *testing.T) {
	tbl, s := newFreeTable(64 << 20)
	keys := workload.SequenceKeys(21, 10000)
	for _, k := range keys {
		if err := tbl.Insert(s, k, k); err != nil {
			t.Fatal(err)
		}
	}
	// Delete every third key.
	for i := 0; i < len(keys); i += 3 {
		if !tbl.Delete(s, keys[i]) {
			t.Fatalf("delete of present key %d failed", keys[i])
		}
	}
	for i, k := range keys {
		_, ok := tbl.Lookup(s, k)
		if i%3 == 0 && ok {
			t.Fatalf("deleted key %d still present", k)
		}
		if i%3 != 0 && !ok {
			t.Fatalf("surviving key %d lost", k)
		}
	}
	if tbl.Delete(s, 0xFFFF_FFFF_FFFF_FFF1) {
		t.Fatal("delete of absent key reported success")
	}
	if tbl.Delete(s, 0) {
		t.Fatal("delete of zero key reported success")
	}
}

func TestDeleteThenReinsert(t *testing.T) {
	tbl, s := newFreeTable(16 << 20)
	if err := tbl.Insert(s, 99, 1); err != nil {
		t.Fatal(err)
	}
	if !tbl.Delete(s, 99) {
		t.Fatal("delete failed")
	}
	if err := tbl.Insert(s, 99, 2); err != nil {
		t.Fatal(err)
	}
	if v, ok := tbl.Lookup(s, 99); !ok || v != 2 {
		t.Fatalf("reinsert: got (%d,%v)", v, ok)
	}
}

func TestValidateInvariants(t *testing.T) {
	tbl, s := newFreeTable(128 << 20)
	if err := tbl.Validate(s); err != nil {
		t.Fatalf("fresh table invalid: %v", err)
	}
	keys := workload.SequenceKeys(23, 60000)
	for i, k := range keys {
		if err := tbl.Insert(s, k, k); err != nil {
			t.Fatal(err)
		}
		if i%20000 == 19999 {
			if err := tbl.Validate(s); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := tbl.Validate(s); err != nil {
		t.Fatalf("final validation: %v", err)
	}
	if got := tbl.Len(s); got != len(keys) {
		t.Fatalf("Len = %d, want %d", got, len(keys))
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	tbl, s := newFreeTable(32 << 20)
	for _, k := range workload.SequenceKeys(25, 5000) {
		if err := tbl.Insert(s, k, k); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt a directory entry.
	s.Poke64(tbl.dirEntry(1), 12345)
	if tbl.Validate(s) == nil {
		t.Fatal("corruption not detected")
	}
}
