package machine

import (
	"math"

	"optanesim/internal/sim"
)

// This file is the lookahead-window scheduler: the machinery that lets a
// simulated thread execute many operations inline between coroutine
// baton passes while preserving the min-time scheduler's exact,
// reproducible contention semantics.
//
// # The min-time invariant
//
// Shared components (the L3, the memory controllers, the on-DIMM
// buffers) are arrival-order-sensitive: their queues, hazard tables and
// replacement state mutate the moment an access arrives, so the order
// in which threads' operations reach them is observable in every
// result. The classic scheduler kept that order exact by passing a
// coroutine baton at every operation boundary to whichever unfinished
// thread was furthest behind in simulated time (ties broken by
// registration order) — two channel operations per op once more than
// one thread was live.
//
// The lookahead scheduler keeps the same invariant — an operation
// executes only while its thread is the minimum-time runnable thread —
// but enforces it with a grant horizon instead of a per-op scan:
//
//   - When a thread is granted the baton, the horizon is computed once
//     from the registry of suspended threads (an indexed min-heap keyed
//     by thread time): the earliest instant at which any other thread
//     could need to run.
//   - While the thread's clock is below the horizon it executes
//     operations inline; the per-op check is a single comparison.
//     Suspended threads cannot advance, so the horizon needs no
//     maintenance while the grant lasts.
//   - Once the clock crosses the horizon, the next operation re-enters
//     the heap and passes the baton to the global minimum.
//
// Every operation passes the same gate (schedule), whatever it
// touches, so execution order — and with it everything a telemetry
// recorder observes — is the min-time order of the per-op baton.

// Horizon sentinels. horizonNever marks a thread that can never be
// preempted (a solo run, or the last unfinished thread): its per-op
// check stays one always-true comparison. horizonAlways forces a
// rescheduling decision at every operation boundary — the compatibility
// mode that reproduces the classic per-op baton exactly, kept as the
// reference implementation for the scheduler property tests.
const (
	horizonNever  = sim.Cycles(math.MaxInt64)
	horizonAlways = sim.Cycles(math.MinInt64)
)

// threadHeap is an indexed binary min-heap of suspended runnable
// threads keyed by (now, registration id). It replaces the O(n)
// pickNext scan the classic scheduler performed at every operation
// boundary; push and pop are O(log n) and run only at baton passes.
// The backing array is reused across Runs (grown once per System).
type threadHeap struct {
	a []*Thread
}

// threadLess orders threads by simulated time, breaking ties by
// registration order — exactly the order the classic pickNext scan
// produced, so tie-bound workloads schedule identically.
func threadLess(x, y *Thread) bool {
	return x.now < y.now || (x.now == y.now && x.id < y.id)
}

func (h *threadHeap) push(t *Thread) {
	h.a = append(h.a, t)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !threadLess(h.a[i], h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *threadHeap) pop() *Thread {
	n := len(h.a)
	if n == 0 {
		return nil
	}
	top := h.a[0]
	last := h.a[n-1]
	h.a[n-1] = nil
	h.a = h.a[:n-1]
	if n > 1 {
		h.a[0] = last
		i := 0
		for {
			small := i
			if l := 2*i + 1; l < n-1 && threadLess(h.a[l], h.a[small]) {
				small = l
			}
			if r := 2*i + 2; r < n-1 && threadLess(h.a[r], h.a[small]) {
				small = r
			}
			if small == i {
				break
			}
			h.a[i], h.a[small] = h.a[small], h.a[i]
			i = small
		}
	}
	return top
}

// min returns the heap's minimum without removing it, or nil when empty.
func (h *threadHeap) min() *Thread {
	if len(h.a) == 0 {
		return nil
	}
	return h.a[0]
}

func (h *threadHeap) reset() {
	for i := range h.a {
		h.a[i] = nil
	}
	h.a = h.a[:0]
}

// grant installs t's lookahead horizon against the current heap of
// suspended threads. t runs inline while its clock stays strictly below
// the horizon; the +1 when the nearest suspended thread registered
// later encodes the classic tie-break (at equal times the
// earlier-registered thread runs first).
func (s *System) grant(t *Thread) {
	if s.compatSched {
		t.horizon = horizonAlways
		return
	}
	u := s.sched.min()
	if u == nil {
		t.horizon = horizonNever
		return
	}
	h := u.now
	if u.id > t.id {
		h++
	}
	t.horizon = h
}

// yield re-enters the scheduler at an operation boundary: the calling
// thread rejoins the heap and the baton passes to the minimum-time
// runnable thread. Called only when the clock has crossed the grant
// horizon, so with a single live thread it simply renews the
// never-preempt horizon.
func (t *Thread) yield() {
	s := t.sys
	if s.live <= 1 && !s.compatSched {
		t.horizon = horizonNever
		return
	}
	s.sched.push(t)
	next := s.sched.pop()
	s.grant(next)
	if next == t {
		return
	}
	next.resume <- struct{}{}
	<-t.resume
	t.attrResumed()
}

// schedule is the operation-entry gate every simulated operation
// passes: below the horizon it is one comparison, past it the thread
// yields so the operation runs in exact min-time order.
func (t *Thread) schedule() {
	t.ops++
	if t.now < t.horizon {
		return
	}
	t.yield()
}
