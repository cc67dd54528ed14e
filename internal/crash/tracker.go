// Package crash is the power-failure injection subsystem: it tracks the
// persistence state of every cacheline a workload touches, enumerates
// the memory images that could survive a power cut at any point of the
// trace, and replays each persistent structure's recovery path against
// those images.
//
// The model follows the paper's ADR story: a store is crash-safe only
// once it has been accepted into the iMC's write pending queue (which a
// fence guarantees for every previously issued clwb/nt-store), while a
// merely dirty cacheline may or may not have been written back by the
// cache hierarchy at the moment of the cut — and if it was, the
// surviving content is whatever the line held at the (unknowable)
// write-back instant. Under eADR (G2 §6) the caches themselves are in
// the persistence domain, so every executed store survives.
//
// Three pieces cooperate:
//
//   - Tracker implements pmem.Observer: it records every store, flush,
//     nt-store and fence of a session in program order, snapshotting the
//     affected cacheline's content at each event.
//   - The enumeration in inject.go turns the event log into the set of
//     distinct survivable memory images (see States), exhaustively for
//     small traces and deterministically sampled (sim.Rand) for large
//     ones, including WPQ-reorder and torn-line variants.
//   - Check materializes each image into a cloned heap and runs a
//     recovery + invariant function against it, capturing panics as
//     violations.
package crash

import (
	"bytes"
	"fmt"

	"optanesim/internal/mem"
	"optanesim/internal/pmem"
)

// LineState classifies one cacheline's persistence state.
type LineState int

// The states a tracked cacheline can be in.
const (
	// StateClean: never stored to since the tracker's baseline.
	StateClean LineState = iota
	// StateVolatile: dirtied by a store newer than any accepted
	// write-back — lost on power cut (unless eADR).
	StateVolatile
	// StateAccepted: the latest content reached the ADR domain (WPQ
	// acceptance guaranteed by a fence) — survives a power cut.
	StateAccepted
)

func (s LineState) String() string {
	switch s {
	case StateVolatile:
		return "volatile"
	case StateAccepted:
		return "accepted"
	default:
		return "clean"
	}
}

// EventKind enumerates tracked persistence events.
type EventKind uint8

// The event kinds of a trace.
const (
	EvStore EventKind = iota
	EvNTStore
	EvFlush
	EvFence
)

func (k EventKind) String() string {
	switch k {
	case EvStore:
		return "store"
	case EvNTStore:
		return "nt-store"
	case EvFlush:
		return "flush"
	default:
		return "fence"
	}
}

// Event is one recorded persistence event. Data is the affected line's
// full content sampled when the event fired (nil for fences); Meta is
// the caller's volatile-metadata snapshot as of this event.
type Event struct {
	Seq  int
	Kind EventKind
	Line mem.Addr
	Data []byte
	Meta any
}

// Tracker observes a session and records its persistence trace against a
// baseline image of the tracked heaps. It is not safe for concurrent
// use; attach it to single-mutator traces (fences are modeled as
// covering every earlier flush of the trace, which is the single-thread
// semantics).
type Tracker struct {
	heaps     []*pmem.Heap
	baselines []*pmem.Mark // each heap's Mark at the baseline
	eadr      bool
	metaFn    func() any
	baseMeta  any
	events    []Event
}

// lineTrack carries one line's replay state: the latest
// fence-guaranteed content (nil = baseline) and the snapshots taken
// since that guarantee (each a possible eviction-time survivor).
type lineTrack struct {
	fenced  []byte
	pending []snapshot
}

type snapshot struct {
	seq  int
	kind EventKind
	data []byte
}

// NewTracker builds a tracker over the given heaps, marking their
// current content (pmem.Heap.Mark) as the durable baseline (callers
// attach it after setup, so the pre-trace structure counts as
// persisted). Each mark is its heap's live mark, so the baseline holds
// the original bytes of only the lines the trace overwrites.
func NewTracker(heaps ...*pmem.Heap) *Tracker {
	if len(heaps) == 0 {
		panic("crash: NewTracker needs at least one heap")
	}
	t := &Tracker{heaps: heaps}
	for _, h := range heaps {
		t.baselines = append(t.baselines, h.Mark())
	}
	return t
}

// SetEADR selects eADR semantics: the caches are inside the persistence
// domain, so every executed store is survivable and the only crash
// states are store-order prefixes.
func (t *Tracker) SetEADR(on bool) { t.eadr = on }

// SetMetaFunc registers a callback sampled at every event; its return
// value is delivered to the recovery checker as the volatile metadata
// (e.g. the current root pointer) a real system would have lost and must
// re-derive or have stored persistently.
func (t *Tracker) SetMetaFunc(fn func() any) {
	t.metaFn = fn
	if fn != nil {
		t.baseMeta = fn()
	}
}

// Attach subscribes the tracker to a session's persistence events.
func (t *Tracker) Attach(s *pmem.Session) { s.SetObserver(t) }

// Reset drops the recorded trace and re-baselines the heaps at their
// current marks.
func (t *Tracker) Reset() {
	t.events = t.events[:0]
	t.baselines = t.baselines[:0]
	for _, h := range t.heaps {
		t.baselines = append(t.baselines, h.Mark())
	}
	if t.metaFn != nil {
		t.baseMeta = t.metaFn()
	}
}

// Events returns the number of recorded events.
func (t *Tracker) Events() int { return len(t.events) }

// tracked reports whether line falls inside a tracked heap, returning
// the heap index.
func (t *Tracker) tracked(line mem.Addr) (int, bool) {
	for i, h := range t.heaps {
		if h.Contains(line) {
			return i, true
		}
	}
	return 0, false
}

// sample copies line's current content out of its heap.
func (t *Tracker) sample(hi int, line mem.Addr) []byte {
	n := mem.CachelineSize
	h := t.heaps[hi]
	if rem := uint64(h.Base()) + h.Size() - uint64(line); rem < uint64(n) {
		n = int(rem)
	}
	return append([]byte(nil), h.Bytes(line, n)...)
}

// baselineLine returns line's content in the baseline image: the marked
// bytes, and zeros past the mark. Like sample, it stops at the heap's
// capacity.
func (t *Tracker) baselineLine(hi int, line mem.Addr) []byte {
	h := t.heaps[hi]
	b := make([]byte, min(uint64(mem.CachelineSize), h.Size()-uint64(line-h.Base())))
	h.ReadMarked(t.baselines[hi], line, b)
	return b
}

// record appends an event to the trace.
func (t *Tracker) record(kind EventKind, line mem.Addr) {
	var data []byte
	if kind != EvFence {
		hi, ok := t.tracked(line)
		if !ok {
			return // untracked region (e.g. a DRAM mirror)
		}
		data = t.sample(hi, line)
	}
	e := Event{Seq: len(t.events), Kind: kind, Line: line, Data: data}
	if t.metaFn != nil {
		e.Meta = t.metaFn()
	}
	t.events = append(t.events, e)
}

// applyEvent advances a replay map by one event. Under eADR every store
// is immediately survivable, so the pending set collapses to the latest
// content; under ADR only a fence promotes flushed snapshots.
func applyEvent(lines map[mem.Addr]*lineTrack, e Event, eadr bool) {
	switch e.Kind {
	case EvStore, EvNTStore, EvFlush:
		lt := lines[e.Line]
		if lt == nil {
			lt = &lineTrack{}
			lines[e.Line] = lt
		}
		if eadr {
			lt.fenced = e.Data
			lt.pending = lt.pending[:0]
			return
		}
		// Skip no-op snapshots (same content as the latest candidate):
		// they add events but no new survivable state.
		if n := len(lt.pending); n > 0 && bytes.Equal(lt.pending[n-1].data, e.Data) {
			if e.Kind != EvStore && lt.pending[n-1].kind == EvStore {
				lt.pending[n-1].kind = e.Kind // upgrade: now also posted to the WPQ
				lt.pending[n-1].seq = e.Seq
			}
			return
		}
		lt.pending = append(lt.pending, snapshot{seq: e.Seq, kind: e.Kind, data: e.Data})
	case EvFence:
		// Every flush/nt-store issued before the fence is now accepted:
		// its snapshot becomes the line's guaranteed floor, and only
		// stores issued after that flush remain uncertain.
		for _, lt := range lines {
			promoted := -1
			for i, sn := range lt.pending {
				if sn.kind == EvFlush || sn.kind == EvNTStore {
					promoted = i
				}
			}
			if promoted < 0 {
				continue
			}
			lt.fenced = lt.pending[promoted].data
			lt.pending = append(lt.pending[:0], lt.pending[promoted+1:]...)
		}
	}
}

// State classifies line's persistence state at the end of the recorded
// trace, replaying the whole trace to answer.
func (t *Tracker) State(line mem.Addr) LineState {
	lines := make(map[mem.Addr]*lineTrack)
	for _, e := range t.events {
		applyEvent(lines, e, t.eadr)
	}
	lt := lines[line.Line()]
	if lt == nil {
		return StateClean
	}
	if len(lt.pending) > 0 {
		return StateVolatile
	}
	if lt.fenced != nil {
		return StateAccepted
	}
	return StateClean
}

// pmem.Observer implementation.

// ObserveStore records a cacheable store.
func (t *Tracker) ObserveStore(line mem.Addr) { t.record(EvStore, line) }

// ObserveNTStore records a non-temporal store.
func (t *Tracker) ObserveNTStore(line mem.Addr) { t.record(EvNTStore, line) }

// ObserveFlush records a clwb.
func (t *Tracker) ObserveFlush(line mem.Addr) { t.record(EvFlush, line) }

// ObserveFence records a persistence barrier.
func (t *Tracker) ObserveFence() { t.record(EvFence, 0) }

var _ pmem.Observer = (*Tracker)(nil)

func (t *Tracker) String() string {
	return fmt.Sprintf("crash.Tracker{%d heaps, %d events}", len(t.heaps), len(t.events))
}
