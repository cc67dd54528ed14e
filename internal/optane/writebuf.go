package optane

import (
	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

// writeBuffer models the on-DIMM write-combining buffer (§3.2). It
// absorbs 64 B writes arriving from the WPQ, merging writes to the same
// XPLine. Its policies are generation specific:
//
//   - G1 writes fully-modified XPLines back to the media periodically
//     (~every 5000 cycles) and evicts in random batches once occupancy
//     reaches a 12 KB high watermark, producing Fig. 3/4's sharp knees.
//   - G2 disables the periodic write-back and evicts single random
//     victims at full capacity, producing a graceful hit-ratio decline.
//
// Evicting a partially written XPLine requires a read-modify-write: the
// missing bytes are read from the media (or taken from the read buffer)
// before the 256 B media write.
//
// Residency is tracked in a mem.Table rather than a runtime map: the
// buffer is probed on every read and write the DIMM serves.
type writeBuffer struct {
	prof *Profile
	rng  *sim.Rand

	tbl   mem.Table[*wbEntry]
	order []mem.Addr // occupancy list for victim selection

	// fullQueue holds fully written XPLines awaiting periodic write-back
	// (G1 only), oldest first from fqHead on; the popped prefix is
	// compacted away periodically so the backing array is reused instead
	// of reallocated. Each record pins the entry it refers to by
	// generation: if the entry was evicted (and possibly re-allocated)
	// since queueing, the generations disagree and the record is stale.
	fullQueue []fullRec
	fqHead    int

	// free recycles wbEntry structs: the DIMM consumes evicted/drained
	// entries synchronously and returns them via recycle, so steady-state
	// allocation traffic is zero.
	free []*wbEntry
	// dueBuf and victimBuf are reused return buffers for DuePeriodic and
	// PickVictims; contents are only valid until the next call.
	dueBuf    []*wbEntry
	victimBuf []*wbEntry

	merges      uint64
	allocations uint64
	evictions   uint64
	periodicWBs uint64
}

type wbEntry struct {
	xpl      mem.Addr
	written  [mem.LinesPerXPLine]bool
	nWritten int
	// hasBase records whether the full 256 B of backing data are present
	// (all four lines written, or the entry transitioned from the read
	// buffer), in which case eviction needs no RMW media read.
	hasBase bool
	fullAt  sim.Cycles // when the entry became fully written
	// gen counts this struct's residency epochs: it increments each time
	// the entry leaves the buffer, invalidating fullQueue records that
	// still point here.
	gen uint64
}

type fullRec struct {
	e   *wbEntry
	gen uint64
	xpl mem.Addr
}

func newWriteBuffer(prof *Profile, rng *sim.Rand) *writeBuffer {
	wb := &writeBuffer{prof: prof, rng: rng}
	wb.tbl.Init(1 << 9)
	return wb
}

// Contains reports whether the cacheline at addr has current data in the
// write buffer (either that line was written, or full base data is
// present).
func (wb *writeBuffer) Contains(addr mem.Addr) bool {
	e, ok := wb.tbl.Get(addr.XPLine())
	if !ok {
		return false
	}
	return e.hasBase || e.written[addr.LineInXPLine()]
}

// Merge records a 64 B write into an existing entry, reporting whether
// one was present. When the write completes the XPLine, the entry is
// queued for G1's periodic write-back.
func (wb *writeBuffer) Merge(addr mem.Addr, now sim.Cycles) bool {
	e, ok := wb.tbl.Get(addr.XPLine())
	if !ok {
		return false
	}
	wb.merges++
	idx := addr.LineInXPLine()
	if !e.written[idx] {
		e.written[idx] = true
		e.nWritten++
		if e.nWritten == mem.LinesPerXPLine {
			e.hasBase = true
			e.fullAt = now
			if wb.prof.PeriodicWritebackCycles > 0 {
				wb.pushFull(e)
			}
		}
	}
	return true
}

// pushFull queues a fully written XPLine for periodic write-back,
// compacting the consumed queue prefix when it dominates the backing
// array.
func (wb *writeBuffer) pushFull(e *wbEntry) {
	if wb.fqHead > 64 && wb.fqHead*2 >= len(wb.fullQueue) {
		n := copy(wb.fullQueue, wb.fullQueue[wb.fqHead:])
		wb.fullQueue = wb.fullQueue[:n]
		wb.fqHead = 0
	}
	wb.fullQueue = append(wb.fullQueue, fullRec{e: e, gen: e.gen, xpl: e.xpl})
}

// recycle returns consumed entries (from DuePeriodic or PickVictims) to
// the freelist.
func (wb *writeBuffer) recycle(entries []*wbEntry) {
	wb.free = append(wb.free, entries...)
}

// newEntry takes an entry from the freelist or allocates one. The
// residency generation survives the reset.
func (wb *writeBuffer) newEntry() *wbEntry {
	if n := len(wb.free); n > 0 {
		e := wb.free[n-1]
		wb.free = wb.free[:n-1]
		g := e.gen
		*e = wbEntry{}
		e.gen = g
		return e
	}
	return &wbEntry{}
}

// Allocate installs a fresh entry for the XPLine containing addr with the
// given cacheline written. hasBase marks entries seeded with full data
// (e.g. transitioned from the read buffer).
func (wb *writeBuffer) Allocate(addr mem.Addr, hasBase bool, now sim.Cycles) {
	xpl := addr.XPLine()
	e := wb.newEntry()
	e.xpl, e.hasBase = xpl, hasBase
	idx := addr.LineInXPLine()
	e.written[idx] = true
	e.nWritten = 1
	wb.tbl.Put(xpl, e)
	if len(wb.order) >= 4*wb.prof.WriteBufLines && len(wb.order) >= 2*wb.tbl.Len() {
		wb.compactOrder()
	}
	wb.order = append(wb.order, xpl)
	wb.allocations++
	if e.nWritten == mem.LinesPerXPLine {
		e.fullAt = now
	}
}

// NeedsEviction reports whether an allocation would push occupancy past
// the generation's high watermark.
func (wb *writeBuffer) NeedsEviction() bool {
	return wb.tbl.Len() >= wb.prof.WriteBufHighWater
}

// PickVictims selects up to n random resident XPLines for eviction and
// removes them from the buffer, returning their entries.
func (wb *writeBuffer) PickVictims(n int) []*wbEntry {
	victims := wb.victimBuf[:0]
	for len(victims) < n && wb.tbl.Len() > 0 {
		// Compact lazily: drop stale order slots as we encounter them.
		i := wb.rng.Intn(len(wb.order))
		xpl := wb.order[i]
		last := len(wb.order) - 1
		wb.order[i] = wb.order[last]
		wb.order = wb.order[:last]
		e, ok := wb.tbl.Del(xpl)
		if !ok {
			continue
		}
		e.gen++
		wb.evictions++
		victims = append(victims, e)
	}
	wb.victimBuf = victims
	return victims
}

// DuePeriodic pops the fully written XPLines whose periodic write-back
// deadline (fullAt + interval) has passed by now. The returned entries
// have been removed from the buffer. Entries that were evicted or
// re-allocated in the meantime are skipped.
//
// The prefix scan must run on every call — a deadline watermark cannot
// shortcut it. Discharging a stale record is a decision made against the
// buffer state at call time: deferred, the same record can later find
// its XPLine refilled and resurface as a blocking stand-in, delaying
// unrelated XPLines queued behind it. The common case is one generation
// compare and one deadline compare on the head record.
func (wb *writeBuffer) DuePeriodic(now sim.Cycles) []*wbEntry {
	if wb.prof.PeriodicWritebackCycles <= 0 {
		return nil
	}
	due := wb.dueBuf[:0]
	for wb.fqHead < len(wb.fullQueue) {
		rec := &wb.fullQueue[wb.fqHead]
		e := rec.e
		if e.gen != rec.gen {
			// The queued entry left the buffer. If the XPLine was since
			// re-allocated and written full again, this (oldest) record
			// stands in for it, exactly as the address-keyed queue did:
			// the current residency drains on the refill's own deadline.
			e, _ = wb.tbl.Get(rec.xpl)
			if e == nil || e.nWritten != mem.LinesPerXPLine {
				wb.fqHead++
				continue
			}
		}
		if e.fullAt+wb.prof.PeriodicWritebackCycles > now {
			break
		}
		wb.fqHead++
		wb.tbl.Del(rec.xpl)
		e.gen++
		wb.periodicWBs++
		due = append(due, e)
	}
	if wb.fqHead == len(wb.fullQueue) {
		wb.fullQueue = wb.fullQueue[:0]
		wb.fqHead = 0
	}
	wb.dueBuf = due
	return due
}

// compactOrder drops stale occupancy slots (XPLines that were removed by
// periodic write-back) in place, preserving insertion order so victim
// selection stays deterministic.
func (wb *writeBuffer) compactOrder() {
	kept := wb.order[:0]
	seen := make(map[mem.Addr]bool, wb.tbl.Len())
	for _, xpl := range wb.order {
		if _, ok := wb.tbl.Get(xpl); ok && !seen[xpl] {
			seen[xpl] = true
			kept = append(kept, xpl)
		}
	}
	wb.order = kept
}

// Len reports the number of resident XPLine entries.
func (wb *writeBuffer) Len() int { return wb.tbl.Len() }
