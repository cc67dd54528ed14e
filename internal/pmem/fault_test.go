package pmem

import (
	"testing"

	"optanesim/internal/fault"
	"optanesim/internal/mem"
)

// faultSession builds a free session over a small PM heap with an
// injector attached, returning both plus the first of two allocated
// lines.
func faultSession(t *testing.T) (*Session, *fault.Injector, mem.Addr) {
	t.Helper()
	h := NewPMHeap(1 << 16)
	s := NewFreeSession(h)
	inj := fault.New(fault.Config{})
	s.SetFaults(inj)
	return s, inj, h.Alloc(2*mem.CachelineSize, mem.CachelineSize)
}

func TestUncheckedLoadAbsorbsSilently(t *testing.T) {
	s, inj, addr := faultSession(t)
	s.Store64(addr, 0xfeed)
	inj.InstallPoison(addr)
	if got := s.Load64(addr); got != 0xfeed {
		t.Fatalf("data plane corrupted: %#x", got)
	}
	if got := inj.Stats().UnreportedHits; got != 1 {
		t.Fatalf("UnreportedHits = %d, want 1", got)
	}
}

func TestFaultCheckSurfacesTypedError(t *testing.T) {
	s, inj, addr := faultSession(t)
	inj.InstallPoison(addr)
	err := s.FaultCheck(func() { s.Load64(addr) })
	if !mem.IsPoison(err) {
		t.Fatalf("want poison error, got %v", err)
	}
	// The checked hit is reported, not silently absorbed.
	st := inj.Stats()
	if st.PoisonHits != 1 || st.UnreportedHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Clean loads inside a scope stay clean.
	if err := s.FaultCheck(func() { s.Load64(addr + mem.CachelineSize) }); err != nil {
		t.Fatalf("clean load errored: %v", err)
	}
}

func TestStoreClearsPoison(t *testing.T) {
	s, inj, addr := faultSession(t)
	inj.InstallPoison(addr)
	s.Store64(addr, 1)
	if inj.Poisoned(addr) {
		t.Fatal("store did not clear poison")
	}
	if err := s.FaultCheck(func() { s.Load64(addr) }); err != nil {
		t.Fatalf("load after clearing store errored: %v", err)
	}
}

func TestCheckedReadRetriesTransient(t *testing.T) {
	s, inj, addr := faultSession(t)
	inj.InstallTransient(addr, 1)
	reads := 0
	err := s.CheckedRead(ReportPolicy(), func() { reads++; s.Load64(addr) })
	if err != nil {
		t.Fatalf("transient not ridden out: %v", err)
	}
	if reads != 2 {
		t.Fatalf("reads = %d, want 2 (fail + clean retry)", reads)
	}
}

func TestCheckedReadReportsHardUE(t *testing.T) {
	s, inj, addr := faultSession(t)
	inj.InstallPoison(addr)
	err := s.CheckedRead(ReportPolicy(), func() { s.Load64(addr) })
	if !mem.IsPoison(err) {
		t.Fatalf("hard UE not reported: %v", err)
	}
	if !inj.Poisoned(addr) {
		t.Fatal("report-only policy cleared the line")
	}
}

func TestCheckedReadScrubsHardUE(t *testing.T) {
	s, inj, addr := faultSession(t)
	s.Store64(addr, 0xabcd)
	inj.InstallPoison(addr)
	var got uint64
	err := s.CheckedRead(RepairingPolicy(), func() { got = s.Load64(addr) })
	if err != nil {
		t.Fatalf("scrub policy failed: %v", err)
	}
	if got != 0xabcd {
		t.Fatalf("repaired read = %#x, want 0xabcd", got)
	}
	if inj.Poisoned(addr) {
		t.Fatal("scrub left the line poisoned")
	}
	if inj.Stats().Scrubbed == 0 {
		t.Fatal("no scrub counted")
	}
}

func TestCheckedReadScrubsMultipleLines(t *testing.T) {
	s, inj, addr := faultSession(t)
	other := addr + mem.CachelineSize
	inj.InstallPoison(addr)
	inj.InstallPoison(other)
	err := s.CheckedRead(RepairingPolicy(), func() {
		s.Load64(addr)
		s.Load64(other)
	})
	if err != nil {
		t.Fatalf("multi-line scrub failed: %v", err)
	}
	if inj.PoisonedLines() != 0 {
		t.Fatalf("%d lines still poisoned", inj.PoisonedLines())
	}
}
