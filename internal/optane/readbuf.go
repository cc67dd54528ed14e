package optane

import (
	"optanesim/internal/mem"
	"optanesim/internal/sim"
	"optanesim/internal/telemetry"
)

// readBuffer models the on-DIMM read buffer (§3.1): a small FIFO of
// XPLines that is *exclusive* with respect to the CPU caches. Serving a
// cacheline to the iMC clears that cacheline's valid bit — the data has
// moved up into the cache hierarchy and will not be served again — which
// is exactly the behaviour that pins Fig. 2's read-amplification floor
// at 1.
type readBuffer struct {
	capacity int
	// retainServed disables the cache-exclusive consumption (ablation).
	retainServed bool
	entries      mem.Table[rbEntry] // keyed by XPLine address
	// fifo holds insertion order, oldest first from fifoHead; the popped
	// prefix is compacted periodically so the backing array is reused.
	fifo     []mem.Addr
	fifoHead int

	evictions uint64

	// tel, when non-nil (set via the owning DIMM), receives eviction
	// events; the disabled path is a single pointer test.
	tel *telemetry.Probe
}

type rbEntry struct {
	valid   [mem.LinesPerXPLine]bool
	readyAt sim.Cycles // when the media fill completes
}

func newReadBuffer(capacity int, retainServed bool) *readBuffer {
	rb := &readBuffer{capacity: capacity, retainServed: retainServed}
	rb.entries.Init(1 << 9)
	return rb
}

// Probe looks up the cacheline at addr. If present with its valid bit
// set, it returns the entry's readyAt time and consumes the line
// (clearing the valid bit, per the buffer's cache-exclusive behaviour).
func (rb *readBuffer) Probe(addr mem.Addr) (readyAt sim.Cycles, ok bool) {
	e := rb.entries.Ref(addr.XPLine())
	if e == nil {
		return 0, false
	}
	idx := addr.LineInXPLine()
	if !e.valid[idx] {
		return 0, false
	}
	if !rb.retainServed {
		e.valid[idx] = false
	}
	return e.readyAt, true
}

// Install records a media fill of the XPLine containing addr, completing
// at readyAt. The cacheline being served (servedIdx >= 0) is installed
// already-consumed. If the XPLine is already buffered its valid bits are
// refreshed in place; otherwise the oldest entry is evicted on overflow
// (read buffer entries are clean, so eviction is free).
func (rb *readBuffer) Install(addr mem.Addr, servedIdx int, readyAt sim.Cycles) {
	e := rbEntry{readyAt: readyAt}
	for i := range e.valid {
		e.valid[i] = true
	}
	if servedIdx >= 0 && !rb.retainServed {
		e.valid[servedIdx] = false
	}
	xpl := addr.XPLine()
	if old := rb.entries.Ref(xpl); old != nil {
		*old = e
		return
	}
	rb.entries.Put(xpl, e)
	if rb.fifoHead > 64 && rb.fifoHead*2 >= len(rb.fifo) {
		n := copy(rb.fifo, rb.fifo[rb.fifoHead:])
		rb.fifo = rb.fifo[:n]
		rb.fifoHead = 0
	}
	rb.fifo = append(rb.fifo, xpl)
	for rb.entries.Len() > rb.capacity {
		rb.evictOldest(readyAt)
	}
}

// Take removes the XPLine containing addr from the read buffer,
// reporting whether it was present. Used when a write transitions the
// line into the write-combining buffer (§3.3).
func (rb *readBuffer) Take(addr mem.Addr) bool {
	// The FIFO slice may retain a stale address; evictOldest skips those.
	_, ok := rb.entries.Del(addr.XPLine())
	return ok
}

// evictOldest displaces the oldest resident XPLine; at timestamps the
// eviction event (the fill that forced it).
func (rb *readBuffer) evictOldest(at sim.Cycles) {
	for rb.fifoHead < len(rb.fifo) {
		oldest := rb.fifo[rb.fifoHead]
		rb.fifoHead++
		if rb.fifoHead == len(rb.fifo) {
			rb.fifo = rb.fifo[:0]
			rb.fifoHead = 0
		}
		if _, ok := rb.entries.Del(oldest); ok {
			rb.evictions++
			if rb.tel != nil {
				rb.tel.Emit(at, telemetry.KindRBEvict, oldest, 0)
			}
			return
		}
		// Stale FIFO entry (already taken by the write buffer); skip.
	}
}

// Len reports the number of buffered XPLines.
func (rb *readBuffer) Len() int { return rb.entries.Len() }
