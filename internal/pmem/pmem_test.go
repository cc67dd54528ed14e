package pmem

import (
	"bytes"
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
	data := h.Bytes(a, 100)
	for i := range data {
		data[i] = byte(i + 1)
	}
	mark := h.Mark()
	if uint64(len(mark)) != h.Used() {
		t.Fatalf("mark holds %d bytes, heap used %d", len(mark), h.Used())
	}

	// Overwrite marked bytes and allocate past the mark.
	h.PutUint64(a, 0xFFFF)
	first := h.Alloc(64, 64)
	h.PutUint64(first, 7)
	second := h.Alloc(300, 8)
	h.PutUint64(second+200, 9)

	h.Rewind(mark)
	if got := h.Bytes(h.Base(), len(mark)); !bytes.Equal(got, mark) {
		t.Fatal("rewind did not restore the marked prefix")
	}
	if h.Used() != uint64(len(mark)) {
		t.Fatalf("used %d after rewind, want %d", h.Used(), len(mark))
	}
	for i, b := range h.Bytes(h.Base()+mem.Addr(len(mark)), int(h.Size())-len(mark)) {
		if b != 0 {
			t.Fatalf("byte %d past the mark is %#x after rewind", len(mark)+i, b)
		}
	}
	if again := h.Alloc(64, 64); again != first {
		t.Fatalf("first alloc after rewind at %#x, want %#x", again, first)
	}

	h.Rewind(nil)
	if h.Used() != 0 {
		t.Fatalf("used %d after rewind to nil", h.Used())
	}
	for i, b := range h.Bytes(h.Base(), int(h.Size())) {
		if b != 0 {
			t.Fatalf("byte %d is %#x after rewind to nil", i, b)
		}
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

func TestSessionRanges(t *testing.T) {
	sys := machine.MustNewSystem(machine.G1Config(1))
	h := NewPMHeap(8192)
	a := h.Alloc(256, 256)
	sys.Go("t", 0, false, func(th *machine.Thread) {
		s := NewSession(th, h)
		data := make([]byte, 200)
		for i := range data {
			data[i] = byte(i)
		}
		s.StoreRange(a, data)
		got := s.LoadRange(a, 200)
		for i := range data {
			if got[i] != data[i] {
				t.Errorf("byte %d: %d != %d", i, got[i], data[i])
			}
		}
	})
	sys.Run()
	// 200 bytes starting line-aligned span 4 cachelines.
	c := sys.PMCounters()
	if c.DemandWriteBytes != 4*64 || c.DemandReadBytes != 4*64 {
		t.Fatalf("range ops charged %d/%d bytes, want 256/256", c.DemandWriteBytes, c.DemandReadBytes)
	}
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
