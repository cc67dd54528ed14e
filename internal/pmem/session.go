package pmem

import (
	"fmt"

	"optanesim/internal/fault"
	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

// Observer receives the session's persistence-relevant events: stores
// (the data plane changed and the cacheline is now dirty), non-temporal
// stores and cacheline flushes (a line's content was posted toward the
// ADR domain), and fences (every previously posted flush is now
// guaranteed accepted). The crash subsystem implements Observer to track
// which post-power-cut states are survivable.
//
// Observers fire for free sessions too: persistence SEMANTICS exist even
// when no simulated time is charged, which is what lets the crash
// harness enumerate states without paying for a timing plane.
type Observer interface {
	// ObserveStore fires after a cacheable store dirtied line (the new
	// content is already visible in the heap).
	ObserveStore(line mem.Addr)
	// ObserveNTStore fires after a non-temporal store of line was posted
	// to the write pending queue.
	ObserveNTStore(line mem.Addr)
	// ObserveFlush fires when a clwb of line is issued.
	ObserveFlush(line mem.Addr)
	// ObserveFence fires when an sfence/mfence retires: all flushes and
	// nt-stores issued before it are now in the ADR domain.
	ObserveFence()
}

// Session couples a simulated thread (the timing plane) with one or more
// heaps (the data plane). Data-structure code uses a Session for every
// access so that functional behaviour and simulated cost stay in sync.
type Session struct {
	T     *machine.Thread
	heaps []*Heap
	obs   Observer

	// faults, when non-nil, classifies every functional-plane access
	// (see SetFaults in fault.go). checkDepth/checkErr implement the
	// FaultCheck scopes: loads inside a scope surface poison as the
	// scope's first error, loads outside count as silently absorbed.
	faults     *fault.Injector
	checkDepth int
	checkErr   error

	// Phase accounting (Table 1's time breakdown): tag is the phase set
	// by Tag, opened at tagSince on the thread's clock; tagCycles holds
	// the closed phases' totals.
	tag       string
	tagSince  sim.Cycles
	tagCycles map[string]sim.Cycles
}

// SetObserver attaches a persistence observer (nil detaches). The
// observer sees events in program order for this session.
func (s *Session) SetObserver(o Observer) { s.obs = o }

func (s *Session) noteStore(addr mem.Addr) {
	s.noteWrite(addr)
	if s.obs != nil {
		s.obs.ObserveStore(addr.Line())
	}
}

func (s *Session) noteStoreRange(addr mem.Addr, n int) {
	if s.obs == nil && s.faults == nil {
		return
	}
	for line := addr.Line(); line < addr+mem.Addr(n); line += mem.CachelineSize {
		s.noteWrite(line)
		if s.obs != nil {
			s.obs.ObserveStore(line)
		}
	}
}

// NewSession builds a session over the given heaps.
func NewSession(t *machine.Thread, heaps ...*Heap) *Session {
	return &Session{T: t, heaps: heaps}
}

// NewFreeSession builds a session with no timing plane: accesses touch
// the data plane only and charge no simulated cycles. Used to pre-build
// large structures outside the measured region.
func NewFreeSession(heaps ...*Heap) *Session {
	return &Session{heaps: heaps}
}

// WithThread returns a session over the same heaps bound to another
// thread (e.g. a helper prefetch thread).
func (s *Session) WithThread(t *machine.Thread) *Session {
	return &Session{T: t, heaps: s.heaps, obs: s.obs, faults: s.faults}
}

// heapFor locates the heap containing addr.
func (s *Session) heapFor(addr mem.Addr) *Heap {
	for _, h := range s.heaps {
		if h.Contains(addr) {
			return h
		}
	}
	panic(fmt.Sprintf("pmem: address %v outside all session heaps", addr))
}

// Load64 reads a uint64, charging one cacheline load. The load is
// treated as data-dependent (its result feeds subsequent addresses), so
// it does not issue out of order.
func (s *Session) Load64(addr mem.Addr) uint64 {
	if s.T != nil {
		s.T.LoadDep(addr)
	}
	s.noteRead(addr)
	return s.heapFor(addr).Uint64(addr)
}

// Store64 writes a uint64, charging one cacheline store.
func (s *Session) Store64(addr mem.Addr, v uint64) {
	if s.T != nil {
		s.T.Store(addr)
	}
	s.heapFor(addr).PutUint64(addr, v)
	s.noteStore(addr)
}

// Peek64 reads the data plane without charging simulated time (for
// assertions and bookkeeping outside the measured path).
func (s *Session) Peek64(addr mem.Addr) uint64 {
	s.noteRead(addr)
	return s.heapFor(addr).Uint64(addr)
}

// Poke64 writes the data plane without charging simulated time. The
// write is still a store as far as persistence tracking is concerned: it
// lands in the (volatile) cache and survives only if written back.
func (s *Session) Poke64(addr mem.Addr, v uint64) {
	s.heapFor(addr).PutUint64(addr, v)
	s.noteStore(addr)
}

// LoadRange charges loads for every cacheline overlapping [addr,addr+n)
// and returns the live backing bytes.
func (s *Session) LoadRange(addr mem.Addr, n int) []byte {
	if s.T != nil {
		for line := addr.Line(); line < addr+mem.Addr(n); line += mem.CachelineSize {
			s.T.Load(line)
		}
	}
	if s.faults != nil {
		for line := addr.Line(); line < addr+mem.Addr(n); line += mem.CachelineSize {
			s.noteRead(line)
		}
	}
	return s.heapFor(addr).Bytes(addr, n)
}

// StoreRange copies data into the heap, charging stores for every
// cacheline it overlaps.
func (s *Session) StoreRange(addr mem.Addr, data []byte) {
	if s.T != nil {
		for line := addr.Line(); line < addr+mem.Addr(len(data)); line += mem.CachelineSize {
			s.T.Store(line)
		}
	}
	copy(s.heapFor(addr).Bytes(addr, len(data)), data)
	s.noteStoreRange(addr, len(data))
}

// NTStore64 writes a uint64 with a non-temporal store.
func (s *Session) NTStore64(addr mem.Addr, v uint64) {
	if s.T != nil {
		s.T.NTStore(addr)
	}
	s.heapFor(addr).PutUint64(addr, v)
	s.noteWrite(addr)
	if s.obs != nil {
		s.obs.ObserveNTStore(addr.Line())
	}
}

// Flush issues clwb for every cacheline overlapping [addr, addr+n).
func (s *Session) Flush(addr mem.Addr, n int) {
	for line := addr.Line(); line < addr+mem.Addr(n); line += mem.CachelineSize {
		if s.obs != nil {
			s.obs.ObserveFlush(line)
		}
		if s.T != nil {
			s.T.CLWB(line)
		}
	}
}

// Persist is the canonical persistence barrier: clwb over the range
// followed by sfence.
func (s *Session) Persist(addr mem.Addr, n int) {
	s.Flush(addr, n)
	s.Fence()
}

// Tag closes the current code phase and opens the named one: the
// thread's cycles from now until the next Tag count toward tag (Table
// 1's time breakdown). The empty tag counts toward nothing. A thread's
// clock moves only inside its ops, so the totals are exact. No-op for
// free sessions.
func (s *Session) Tag(tag string) {
	if s.T == nil {
		return
	}
	now := s.T.Now()
	if s.tag != "" {
		if s.tagCycles == nil {
			s.tagCycles = make(map[string]sim.Cycles)
		}
		s.tagCycles[s.tag] += now - s.tagSince
	}
	s.tag, s.tagSince = tag, now
}

// TagCycles returns the cycles charged to tag so far, the open phase
// included.
func (s *Session) TagCycles(tag string) sim.Cycles {
	c := s.tagCycles[tag]
	if tag != "" && tag == s.tag {
		c += s.T.Now() - s.tagSince
	}
	return c
}

// LoadLine charges one dependent cacheline load without touching data.
func (s *Session) LoadLine(addr mem.Addr) {
	if s.T != nil {
		s.T.LoadDep(addr)
	}
	s.noteRead(addr)
}

// StoreLine charges one cacheline store without touching data. For
// persistence tracking it still dirties the line (the usual pattern is
// Poke64 for the data plane followed by StoreLine for the timing plane,
// so the line content is current when the observer samples it).
func (s *Session) StoreLine(addr mem.Addr) {
	if s.T != nil {
		s.T.Store(addr)
	}
	s.noteStore(addr)
}

// Fence charges an sfence.
func (s *Session) Fence() {
	if s.obs != nil {
		s.obs.ObserveFence()
	}
	if s.T != nil {
		s.T.SFence()
	}
}

// LoadGroup charges several independent cacheline loads that issue in
// parallel (out of order), advancing to the latest completion.
func (s *Session) LoadGroup(addrs ...mem.Addr) {
	if s.T != nil {
		s.T.LoadParallel(addrs...)
	}
	if s.faults != nil {
		for _, a := range addrs {
			s.noteRead(a)
		}
	}
}

// Compute charges n cycles of computation on the timing plane.
func (s *Session) Compute(n sim.Cycles) {
	if s.T != nil {
		s.T.Compute(n)
	}
}

// FenceOrdered charges an mfence: a full persistence barrier that also
// orders subsequent loads (used by workloads whose recovery logic
// requires load ordering, e.g. the §4.2 B+-tree baseline).
func (s *Session) FenceOrdered() {
	if s.obs != nil {
		s.obs.ObserveFence()
	}
	if s.T != nil {
		s.T.MFence()
	}
}
