package crash_test

import (
	"fmt"
	"runtime"
	"testing"

	"optanesim/internal/crash"
	"optanesim/internal/mem"
	"optanesim/internal/pmem"
	"optanesim/internal/sim"
)

// toyLog is the smallest commit-flag structure: one data line of eight
// values and a separate flag line. The invariant every crash state must
// satisfy: flag==1 implies all eight values are present.
type toyLog struct {
	data mem.Addr
	flag mem.Addr
}

func newToyLog(h *pmem.Heap) toyLog {
	return toyLog{data: h.Alloc(64, 64), flag: h.Alloc(8, 64)}
}

func (l toyLog) writeData(s *pmem.Session) {
	for i := 0; i < 8; i++ {
		s.Poke64(l.data+mem.Addr(i*8), uint64(100+i))
	}
}

func (l toyLog) writeFlag(s *pmem.Session) { s.Poke64(l.flag, 1) }

func (l toyLog) check(img *pmem.Heap, _ any) error {
	if img.Uint64(l.flag) != 1 {
		return nil // not committed: any data state is acceptable
	}
	for i := 0; i < 8; i++ {
		if got := img.Uint64(l.data + mem.Addr(i*8)); got != uint64(100+i) {
			return fmt.Errorf("committed but data[%d] = %d", i, got)
		}
	}
	return nil
}

func TestToyLogCorrectOrdering(t *testing.T) {
	h := pmem.NewPMHeap(4096)
	l := newToyLog(h)
	s := pmem.NewFreeSession(h)
	tr := crash.NewTracker(h)
	tr.Attach(s)

	l.writeData(s)
	s.Persist(l.data, 64)
	l.writeFlag(s)
	s.Persist(l.flag, 8)

	o := tr.Check(crash.Options{}, l.check)
	if o.Failed() {
		t.Fatalf("correct ordering produced violations: %v (%v)", o.Violations, o)
	}
	if o.Events == 0 || o.States < 3 {
		t.Fatalf("implausible outcome: %v", o)
	}
}

// The negative control of the issue: the commit flag is flushed and
// fenced while the data it covers was never flushed — a crash can
// surface flag==1 with missing data.
func TestToyLogMissingDataFlushDetected(t *testing.T) {
	h := pmem.NewPMHeap(4096)
	l := newToyLog(h)
	s := pmem.NewFreeSession(h)
	tr := crash.NewTracker(h)
	tr.Attach(s)

	l.writeData(s) // stored but never flushed
	l.writeFlag(s)
	s.Persist(l.flag, 8)

	o := tr.Check(crash.Options{}, l.check)
	if !o.Failed() {
		t.Fatalf("missing data flush not detected: %v", o)
	}
}

// Second negative control: everything is flushed, but the flag is
// persisted before the data (missing ordering fence between them).
func TestToyLogFlagPersistedFirstDetected(t *testing.T) {
	h := pmem.NewPMHeap(4096)
	l := newToyLog(h)
	s := pmem.NewFreeSession(h)
	tr := crash.NewTracker(h)
	tr.Attach(s)

	l.writeFlag(s)
	s.Persist(l.flag, 8)
	l.writeData(s)
	s.Persist(l.data, 64)

	o := tr.Check(crash.Options{}, l.check)
	if !o.Failed() {
		t.Fatalf("flag-before-data ordering not detected: %v", o)
	}
}

// Under eADR every executed store survives in order, so the missing
// flush is harmless — but reordering the stores themselves is not.
func TestToyLogEADR(t *testing.T) {
	h := pmem.NewPMHeap(4096)
	l := newToyLog(h)
	s := pmem.NewFreeSession(h)
	tr := crash.NewTracker(h)
	tr.SetEADR(true)
	tr.Attach(s)

	l.writeData(s) // no flush at all: fine under eADR
	l.writeFlag(s)
	if o := tr.Check(crash.Options{}, l.check); o.Failed() {
		t.Fatalf("eADR store-ordered trace produced violations: %v", o.Violations)
	}

	h2 := pmem.NewPMHeap(4096)
	l2 := newToyLog(h2)
	s2 := pmem.NewFreeSession(h2)
	tr2 := crash.NewTracker(h2)
	tr2.SetEADR(true)
	tr2.Attach(s2)
	l2.writeFlag(s2) // flag stored before data: broken even under eADR
	l2.writeData(s2)
	if o := tr2.Check(crash.Options{}, l2.check); !o.Failed() {
		t.Fatalf("eADR flag-first ordering not detected: %v", o)
	}
}

// Exact state counts for a tiny trace: two torn stores to one line give
// baseline + both intermediate contents; flush+fence collapses to one.
func TestEnumerationCounts(t *testing.T) {
	h := pmem.NewPMHeap(4096)
	a := h.Alloc(64, 64)
	s := pmem.NewFreeSession(h)
	tr := crash.NewTracker(h)
	tr.Attach(s)

	s.Poke64(a, 1)
	s.Poke64(a+8, 2)
	if got := len(tr.States(crash.Options{})); got != 3 {
		t.Fatalf("two torn stores: want 3 distinct states, got %d", got)
	}
	if st := tr.State(a); st != crash.StateVolatile {
		t.Fatalf("unfenced line state = %v, want volatile", st)
	}

	s.Persist(a, 16)
	states := tr.States(crash.Options{})
	if got := len(states); got != 3 {
		t.Fatalf("after persist: want 3 distinct states, got %d", got)
	}
	if st := tr.State(a); st != crash.StateAccepted {
		t.Fatalf("fenced line state = %v, want accepted", st)
	}

	// Once fenced, the content is the floor: nothing later can lose it.
	tr.Reset()
	s.Poke64(a+8, 3) // torn overwrite, unflushed
	for _, st := range tr.States(crash.Options{}) {
		img := tr.Materialize(st)[0]
		if img.Uint64(a) != 1 {
			t.Fatalf("fenced value lost in state %#x", st.Hash)
		}
		if v := img.Uint64(a + 8); v != 2 && v != 3 {
			t.Fatalf("unexpected survivor %d for unfenced overwrite", v)
		}
	}
}

// A store that rewrites a line's baseline content survives as the
// baseline image, including on the line that holds the end of the
// heap's mark, whose baseline is the marked bytes and zeros past them.
func TestNoOpStoreAtMarkEnd(t *testing.T) {
	h := pmem.NewPMHeap(4096)
	a := h.Alloc(8, 8) // the mark ends 8 bytes into a's line
	h.PutUint64(a, 5)
	s := pmem.NewFreeSession(h)
	tr := crash.NewTracker(h)
	tr.Attach(s)

	s.Poke64(a, 5)
	s.Persist(a, 8)
	if got := len(tr.States(crash.Options{})); got != 1 {
		t.Fatalf("no-op store on the mark's last line: want 1 distinct state, got %d", got)
	}
}

// A deep random trace must enumerate deterministically for a fixed seed
// and stay within the configured caps.
func TestSamplingDeterministic(t *testing.T) {
	run := func() []uint64 {
		h := pmem.NewPMHeap(1 << 16)
		base := h.Alloc(1<<12, 64)
		s := pmem.NewFreeSession(h)
		tr := crash.NewTracker(h)
		tr.Attach(s)
		r := sim.NewRand(7)
		for i := 0; i < 400; i++ {
			addr := base + mem.Addr(r.Intn(1<<12)&^7)
			s.Poke64(addr, r.Uint64())
			switch r.Intn(4) {
			case 0:
				s.Flush(addr, 8)
			case 1:
				s.Persist(addr, 8)
			}
		}
		var hashes []uint64
		for _, st := range tr.States(crash.Options{MaxStatesPerPoint: 8, MaxPoints: 40, Seed: 42}) {
			hashes = append(hashes, st.Hash)
		}
		return hashes
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("state counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("state %d differs between identical runs", i)
		}
	}
	if len(a) > 40*8+80 {
		t.Fatalf("caps not respected: %d states", len(a))
	}
}

// TestBaselineFollowsAllocations pins that crash images cost host memory
// for what the heap allocated, not for its capacity: the baseline is the
// heap's mark, and every materialized image is a clone of it, so a line
// allocated after the baseline reads zero unless its store survived.
func TestBaselineFollowsAllocations(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := pmem.NewPMHeap(256 << 20)
	early := h.Alloc(4<<10, 64)
	s := pmem.NewFreeSession(h)
	s.Poke64(early, 5)
	tr := crash.NewTracker(h)
	tr.Attach(s)

	late := h.Alloc(64, 64)
	s.Poke64(late, 7)
	s.Persist(late, 8)

	seen := map[uint64]bool{}
	o := tr.Check(crash.Options{}, func(img *pmem.Heap, _ any) error {
		if v := img.Uint64(early); v != 5 {
			return fmt.Errorf("baseline value %d, want 5", v)
		}
		v := img.Uint64(late)
		if v != 0 && v != 7 {
			return fmt.Errorf("late line reads %d, want 0 or 7", v)
		}
		seen[v] = true
		return nil
	})
	runtime.ReadMemStats(&after)
	if o.Failed() {
		t.Fatalf("violations: %v (%v)", o.Violations, o)
	}
	if !seen[0] || !seen[7] {
		t.Fatalf("late line values seen %v, want both 0 and 7 (%v)", seen, o)
	}
	if moved := after.TotalAlloc - before.TotalAlloc; moved >= 8<<20 {
		t.Fatalf("tracking a 256 MiB heap with 4 KB allocated took %d bytes of host memory over %v", moved, o)
	}
}
