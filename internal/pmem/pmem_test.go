package pmem

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
)

func TestHeapAlloc(t *testing.T) {
	h := NewPMHeap(4096)
	a := h.Alloc(100, 64)
	b := h.Alloc(100, 64)
	if a%64 != 0 || b%64 != 0 {
		t.Fatal("alignment violated")
	}
	if b <= a || b-a < 100 {
		t.Fatal("allocations overlap")
	}
	if !h.Contains(a) || !h.Contains(b) {
		t.Fatal("Contains broken")
	}
	if h.Contains(h.Base() + 4096) {
		t.Fatal("Contains accepted out-of-range address")
	}
}

func TestHeapRegions(t *testing.T) {
	pm := NewPMHeap(1024)
	dram := NewDRAMHeap(1024)
	if !pm.Alloc(8, 8).IsPM() {
		t.Fatal("PM heap allocated outside the PM region")
	}
	if dram.Alloc(8, 8).IsPM() {
		t.Fatal("DRAM heap allocated in the PM region")
	}
}

func TestHeapExhaustionPanics(t *testing.T) {
	h := NewPMHeap(128)
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted heap did not panic")
		}
	}()
	h.Alloc(256, 1)
}

func TestHeapBadAlignmentPanics(t *testing.T) {
	h := NewPMHeap(128)
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two alignment accepted")
		}
	}()
	h.Alloc(8, 3)
}

func TestHeapDataPlane(t *testing.T) {
	h := NewPMHeap(1024)
	a := h.Alloc(16, 8)
	h.PutUint64(a, 0xDEADBEEF)
	h.PutUint64(a+8, 42)
	if h.Uint64(a) != 0xDEADBEEF || h.Uint64(a+8) != 42 {
		t.Fatal("data plane readback failed")
	}
	h.Rewind(nil)
	if h.Used() != 0 {
		t.Fatal("rewind to nil kept allocations")
	}
}

func TestHeapMarkRewind(t *testing.T) {
	h := NewPMHeap(4096)
	a := h.Alloc(100, 8)
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i + 1)
	}
	h.PutBytes(a, data)
	mark := h.Mark()
	marked := int(h.Used())

	// Overwrite marked bytes and allocate past the mark.
	h.PutUint64(a, 0xFFFF)
	first := h.Alloc(64, 64)
	h.PutUint64(first, 7)
	second := h.Alloc(300, 8)
	h.PutUint64(second+200, 9)

	h.Rewind(mark)
	if got := h.Bytes(h.Base(), marked); !bytes.Equal(got, data) {
		t.Fatal("rewind did not restore the marked prefix")
	}
	if h.Used() != uint64(marked) {
		t.Fatalf("used %d after rewind, want %d", h.Used(), marked)
	}
	if again := h.Alloc(64, 64); again != first {
		t.Fatalf("first alloc after rewind at %#x, want %#x", again, first)
	}
	// Everything past the mark, allocated again, reads zero.
	h.Alloc(h.Size()-h.Used(), 1)
	for i, b := range h.Bytes(h.Base()+mem.Addr(marked), int(h.Size())-marked) {
		if b != 0 {
			t.Fatalf("byte %d past the mark is %#x after rewind", marked+i, b)
		}
	}

	h.Rewind(nil)
	if h.Used() != 0 {
		t.Fatalf("used %d after rewind to nil", h.Used())
	}
	h.Alloc(h.Size(), 1)
	for i, b := range h.Bytes(h.Base(), int(h.Size())) {
		if b != 0 {
			t.Fatalf("byte %d is %#x after rewind to nil", i, b)
		}
	}
}

// wantUnallocated runs access and fails unless it panics with the
// UnallocatedError of heap h at addr.
func wantUnallocated(t *testing.T, h *Heap, addr mem.Addr, access func()) {
	t.Helper()
	defer func() {
		t.Helper()
		e, ok := recover().(UnallocatedError)
		if !ok || e.Heap != h.name || e.Off != uint64(addr-h.Base()) {
			t.Fatalf("access at %#x: panic %#v, want UnallocatedError at offset %#x", addr, e, addr-h.Base())
		}
	}()
	access()
}

// TestHeapBackingFollowsAllocations pins that a heap holds host memory
// for its allocated cachelines, not for its capacity, and that the data
// plane refuses every byte past them at every growth step.
func TestHeapBackingFollowsAllocations(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := NewPMHeap(1 << 30)
	a := h.Alloc(1<<20, mem.CachelineSize)
	runtime.ReadMemStats(&after)
	if moved := after.TotalAlloc - before.TotalAlloc; moved >= 8<<20 {
		t.Fatalf("a 1 GiB heap with 1 MB allocated took %d bytes of host memory", moved)
	}
	if h.Size() != 1<<30 || !h.Contains(h.Base()+(1<<30)-1) {
		t.Fatalf("capacity %d, want 1 GiB", h.Size())
	}
	h.PutUint64(a+(1<<20)-8, 1)
	wantUnallocated(t, h, a+1<<20, func() { h.Uint64(a + 1<<20) })

	// The check follows the allocated lines, not the backing's slack.
	g := NewPMHeap(1 << 20)
	for i := 0; i < 100; i++ {
		end := g.Alloc(uint64(1+i*i), 8) + mem.Addr(1+i*i)
		line := (end + mem.CachelineSize - 1).Line()
		g.PutUint64(line-8, uint64(i))
		wantUnallocated(t, g, line, func() { g.PutUint64(line, 1) })
	}

	// A carved range belongs to the child: the parent does not back it.
	child := h.Carve(1<<20, mem.XPLineSize)
	c := child.Alloc(64, 64)
	child.PutUint64(c, 7)
	wantUnallocated(t, h, c, func() { h.Uint64(c) })

	// A clone of a mark holds the marked bytes and zeros past them, with
	// the source's allocation pointer.
	s := NewPMHeap(1 << 16)
	b := s.Alloc(8, 8)
	s.PutUint64(b, 42)
	mark := s.Mark()
	late := s.Alloc(100, 8)
	s.PutUint64(late, 9)
	cl := s.CloneWith(mark)
	if cl.Used() != s.Used() || cl.Uint64(b) != 42 ||
		!bytes.Equal(cl.Bytes(b+8, int(s.Used())-8), make([]byte, s.Used()-8)) {
		t.Fatalf("clone of an 8-byte mark: used %d (source %d), bytes %x",
			cl.Used(), s.Used(), cl.Bytes(b, int(cl.Used())))
	}
	if got, want := cl.Alloc(8, 8), s.Alloc(8, 8); got != want {
		t.Fatalf("clone's next alloc at %#x, source's at %#x", got, want)
	}
}

// TestHeapMarkPastCapacityPanics pins that a mark of another heap, here
// one longer than the heap's capacity, fails where it is applied, naming
// the heap, instead of surfacing later as an unrelated exhaustion.
func TestHeapMarkPastCapacityPanics(t *testing.T) {
	h := NewDRAMHeap(4096)
	h.Alloc(64, 64)
	big := NewPMHeap(2 * h.Size())
	big.Alloc(h.Size()+1, 1)
	long := big.Mark()
	for name, apply := range map[string]func(){
		"Rewind":     func() { h.Rewind(long) },
		"CloneWith":  func() { h.CloneWith(long) },
		"ReadMarked": func() { h.ReadMarked(long, h.Base(), make([]byte, 8)) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "dram heap") {
					t.Errorf("%s with a %d-byte mark of a pm heap on a %d-byte heap: panic %q, want one naming the dram heap",
						name, big.Used(), h.Size(), msg)
				}
			}()
			apply()
		}()
	}
	if h.Used() != 64 {
		t.Fatalf("failed Rewind moved the bump pointer to %d", h.Used())
	}
}

func TestSessionLoadStore(t *testing.T) {
	sys := machine.MustNewSystem(machine.G1Config(1))
	h := NewPMHeap(4096)
	a := h.Alloc(64, 64)
	sys.Go("t", 0, false, func(th *machine.Thread) {
		s := NewSession(th, h)
		s.Store64(a, 77)
		if s.Load64(a) != 77 {
			t.Error("session readback failed")
		}
		s.Persist(a, 8)
	})
	sys.Run()
	c := sys.PMCounters()
	if c.DemandWriteBytes == 0 || c.DemandReadBytes == 0 {
		t.Fatal("session did not charge the timing plane")
	}
	if c.IMCWriteBytes == 0 {
		t.Fatal("persist did not reach the WPQ")
	}
}

func TestFreeSessionChargesNothing(t *testing.T) {
	h := NewPMHeap(4096)
	a := h.Alloc(64, 64)
	s := NewFreeSession(h)
	s.Store64(a, 5)
	if s.Load64(a) != 5 {
		t.Fatal("free session data plane broken")
	}
	s.Persist(a, 8)
	s.Flush(a, 64)
	s.Fence()
	s.FenceOrdered()
	s.Compute(100)
	s.Tag("x")
	if s.TagCycles("x") != 0 {
		t.Fatal("free session charged a phase")
	}
	s.LoadLine(a)
	s.StoreLine(a)
	s.LoadGroup(a, a+64)
	// Nothing to assert on timing: the free session must simply not
	// panic with a nil thread.
}

func TestTagAttribution(t *testing.T) {
	sys := machine.MustNewSystem(machine.G1Config(1))
	sys.Go("t", 0, false, func(th *machine.Thread) {
		s := NewSession(th)
		s.Tag("alpha")
		th.Compute(100)
		if s.TagCycles("alpha") != 100 {
			t.Errorf("open phase: alpha = %d, want 100", s.TagCycles("alpha"))
		}
		s.Tag("beta")
		th.Compute(250)
		s.Tag("")
		th.Compute(50)
		if s.TagCycles("alpha") != 100 || s.TagCycles("beta") != 250 || s.TagCycles("") != 0 {
			t.Errorf("alpha = %d, beta = %d, untagged = %d; want 100, 250, 0",
				s.TagCycles("alpha"), s.TagCycles("beta"), s.TagCycles(""))
		}
	})
	sys.Run()
}

func TestSessionMultiHeapRouting(t *testing.T) {
	sys := machine.MustNewSystem(machine.G1Config(1))
	pm := NewPMHeap(4096)
	dram := NewDRAMHeap(4096)
	pa := pm.Alloc(8, 8)
	da := dram.Alloc(8, 8)
	sys.Go("t", 0, false, func(th *machine.Thread) {
		s := NewSession(th, pm, dram)
		s.Store64(pa, 1)
		s.Store64(da, 2)
		if s.Load64(pa) != 1 || s.Load64(da) != 2 {
			t.Error("multi-heap routing broken")
		}
	})
	sys.Run()
	if sys.PMCounters().DemandWriteBytes == 0 || sys.DRAMCounters().DemandWriteBytes == 0 {
		t.Fatal("demand not split between regions")
	}
}

func TestSessionOutOfRangePanics(t *testing.T) {
	h := NewPMHeap(4096)
	s := NewFreeSession(h)
	defer func() {
		if recover() == nil {
			t.Fatal("address outside all heaps accepted")
		}
	}()
	s.Load64(mem.Addr(12345))
}

// Property: the heap hands out non-overlapping, properly aligned,
// in-range chunks.
func TestQuickAllocDisjoint(t *testing.T) {
	f := func(sizes []uint8) bool {
		h := NewPMHeap(1 << 20)
		type span struct{ lo, hi mem.Addr }
		var spans []span
		for _, raw := range sizes {
			n := uint64(raw) + 1
			a := h.Alloc(n, 8)
			if a%8 != 0 || !h.Contains(a) || !h.Contains(a+mem.Addr(n-1)) {
				return false
			}
			for _, sp := range spans {
				if a < sp.hi && sp.lo < a+mem.Addr(n) {
					return false // overlap
				}
			}
			spans = append(spans, span{a, a + mem.Addr(n)})
			if len(spans) > 64 {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
