package telemetry

import (
	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

// Kind enumerates the decision-point events the simulator emits. Each
// kind corresponds to one observable transition in the model that the
// paper could only infer from aggregate counters: cache fills and
// evictions, WPQ traffic, on-DIMM buffer hits/misses/evictions, AIT
// cache outcomes, raw media operations, and persistence milestones.
type Kind uint8

// The event kinds, grouped by emitting layer.
const (
	KindNone Kind = iota

	// internal/cache: a line was installed (fill) or displaced (evict;
	// Arg is 1 when the victim was dirty).
	KindCacheFill
	KindCacheEvict

	// internal/imc: a write was accepted into the WPQ (Arg is the queue
	// occupancy after acceptance), drained to the device, or a read
	// stalled on an open read-after-persist hazard (Arg is the stall
	// length in cycles).
	KindWPQEnqueue
	KindWPQDrain
	KindHazardStall

	// internal/optane, read buffer: a cacheline served from the buffer,
	// a miss that forced a media read, an XPLine installed after a media
	// fill, and an XPLine displaced by FIFO overflow.
	KindRBHit
	KindRBMiss
	KindRBInstall
	KindRBEvict

	// internal/optane, write-combining buffer: a read served from freshly
	// written data, a write merged into a resident entry, a fresh entry
	// allocated (Arg is 1 when seeded from a read-buffer transition), an
	// entry evicted toward the media (Arg is 1 when the eviction needed
	// an RMW media read), and a G1 periodic write-back.
	KindWCBHit
	KindWCBMerge
	KindWCBAlloc
	KindWCBEvict
	KindWCBPeriodicWB

	// internal/optane, address indirection table cache.
	KindAITHit
	KindAITMiss

	// internal/optane, media ports: one XPLine-granularity operation.
	KindMediaRead
	KindMediaWrite

	// internal/machine: a PM cacheline dirtied in the volatile caches,
	// and a persistence fence retirement (Arg is the issuing thread ID).
	KindPersistStore
	KindPersistFence

	// internal/xpline: one §4.3 block access via the direct (prefetching)
	// or redirected (AVX staging copy) path.
	KindXPDirect
	KindXPRedirected

	// internal/fault, through the devices: a media write armed a fresh
	// UE on the XPLine, a media read of a poisoned XPLine paid the
	// detect penalty (Arg is the penalty in cycles), and a write waited
	// for a WPQ accept-pause window to close (Arg is the wait in
	// cycles).
	KindPoisonArm
	KindPoisonRead
	KindWPQStall

	// Breakdown events (PR 9). internal/imc: a write waited for a free
	// WPQ slot because the queue was full (Arg is the wait in cycles) —
	// distinct from KindWPQStall, which is a fault-injected pause.
	// internal/machine: a fence waited on pending WPQ acceptances
	// beyond its base cost (Arg is the drain wait in cycles).
	KindWPQWait
	KindFenceDrain

	numKinds
)

var kindNames = [numKinds]string{
	KindNone:          "none",
	KindCacheFill:     "cache-fill",
	KindCacheEvict:    "cache-evict",
	KindWPQEnqueue:    "wpq-enq",
	KindWPQDrain:      "wpq-drain",
	KindHazardStall:   "hazard-stall",
	KindRBHit:         "rb-hit",
	KindRBMiss:        "rb-miss",
	KindRBInstall:     "rb-install",
	KindRBEvict:       "rb-evict",
	KindWCBHit:        "wcb-hit",
	KindWCBMerge:      "wcb-merge",
	KindWCBAlloc:      "wcb-alloc",
	KindWCBEvict:      "wcb-evict",
	KindWCBPeriodicWB: "wcb-periodic-wb",
	KindAITHit:        "ait-hit",
	KindAITMiss:       "ait-miss",
	KindMediaRead:     "media-read",
	KindMediaWrite:    "media-write",
	KindPersistStore:  "persist-store",
	KindPersistFence:  "persist-fence",
	KindXPDirect:      "xp-direct",
	KindXPRedirected:  "xp-redirected",
	KindPoisonArm:     "poison-arm",
	KindPoisonRead:    "poison-read",
	KindWPQStall:      "wpq-stall",
	KindWPQWait:       "wpq-wait",
	KindFenceDrain:    "fence-drain",
}

// String returns the kind's stable wire name (used in every sink).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one timestamped decision-point record. At is on the
// recorder's unified simulated-cycle timeline (successive machine runs
// within one unit are concatenated, never overlapped). Src indexes the
// recording's source table (which component emitted). Addr and Arg carry
// kind-specific detail; see the Kind constants.
type Event struct {
	At   sim.Cycles
	Addr mem.Addr
	Arg  uint64
	Kind Kind
	Src  uint8
}

// Stream is a fixed-capacity ring of the most recent events. When the
// ring wraps, the oldest events are dropped and counted; analysis sinks
// report the drop count so a truncated timeline is never mistaken for a
// complete one.
type Stream struct {
	buf   []Event
	next  int
	full  bool
	total uint64
}

// newStream builds a ring of the given capacity (minimum 1).
func newStream(capacity int) *Stream {
	if capacity < 1 {
		capacity = 1
	}
	return &Stream{buf: make([]Event, capacity)}
}

// emit appends one event, overwriting the oldest on overflow.
func (s *Stream) emit(e Event) {
	s.total++
	s.buf[s.next] = e
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.full = true
	}
}

// Len reports the number of retained events.
func (s *Stream) Len() int {
	if s.full {
		return len(s.buf)
	}
	return s.next
}

// Total reports the number of events emitted, including dropped ones.
func (s *Stream) Total() uint64 { return s.total }

// Dropped reports how many events the ring has overwritten.
func (s *Stream) Dropped() uint64 { return s.total - uint64(s.Len()) }

// Events returns the retained events, oldest first, as a fresh slice.
func (s *Stream) Events() []Event {
	out := make([]Event, 0, s.Len())
	if s.full {
		out = append(out, s.buf[s.next:]...)
	}
	out = append(out, s.buf[:s.next]...)
	return out
}
