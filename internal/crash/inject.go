package crash

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"optanesim/internal/mem"
	"optanesim/internal/pmem"
	"optanesim/internal/sim"
)

// Options controls crash-state enumeration.
type Options struct {
	// MaxStatesPerPoint caps the survivable images generated per crash
	// point (default 64). When a point's full candidate product fits
	// under the cap it is enumerated exhaustively; otherwise that many
	// states are sampled deterministically (always including the
	// all-floor and all-latest corner states).
	MaxStatesPerPoint int
	// MaxPoints caps the number of crash points considered (default:
	// every event boundary). When the trace is longer, points are
	// sampled deterministically; the trace start and end are always
	// included.
	MaxPoints int
	// Seed drives all sampling (sim.Rand); the same seed always yields
	// the same states.
	Seed uint64
}

const defaultMaxStatesPerPoint = 64

// State is one survivable post-crash memory image: the baseline plus a
// choice of surviving content for every uncertain line, cut at crash
// point Point (= number of trace events executed before the power cut).
type State struct {
	Point int
	Meta  any
	Hash  uint64
	lines map[mem.Addr][]byte
}

// Lines returns the number of lines whose surviving content differs
// from the baseline image.
func (st State) Lines() int { return len(st.lines) }

// lineCands is one line's candidate surviving contents at a crash
// point: cands[0] is the guaranteed floor (fence-accepted content, or
// the baseline), the rest are snapshots that MAY have reached the ADR
// domain — unfenced flushes/nt-stores sitting in the WPQ, and plain
// stores the cache may have written back on its own.
type lineCands struct {
	line  mem.Addr
	cands [][]byte
}

// States enumerates the distinct survivable memory images of the
// recorded trace across all selected crash points, deduplicated by
// content hash. Because each uncertain line picks its survivor
// independently, the set covers WPQ reordering across lines and torn
// lines (a store-granularity snapshot surviving without its
// line-mates' later updates).
func (t *Tracker) States(opts Options) []State {
	if opts.MaxStatesPerPoint <= 0 {
		opts.MaxStatesPerPoint = defaultMaxStatesPerPoint
	}
	r := sim.NewRand(opts.Seed)
	points := t.selectPoints(opts, r)

	lines := make(map[mem.Addr]*lineTrack)
	seen := make(map[uint64]bool)
	var out []State
	next := 0
	for _, p := range points {
		for next < p {
			applyEvent(lines, t.events[next], t.eadr)
			next++
		}
		meta := t.baseMeta
		if p > 0 {
			meta = t.events[p-1].Meta
		}
		for _, st := range t.statesAt(p, meta, lines, opts, r) {
			if !seen[st.Hash] {
				seen[st.Hash] = true
				out = append(out, st)
			}
		}
	}
	return out
}

// selectPoints picks the crash points (ascending): every event boundary
// when the trace fits under MaxPoints, else a seeded sample that always
// keeps the first and last boundary.
func (t *Tracker) selectPoints(opts Options, r *sim.Rand) []int {
	total := len(t.events) + 1
	if opts.MaxPoints <= 0 || total <= opts.MaxPoints {
		points := make([]int, total)
		for i := range points {
			points[i] = i
		}
		return points
	}
	chosen := map[int]bool{0: true, total - 1: true}
	for _, p := range r.Perm(total) {
		if len(chosen) >= opts.MaxPoints {
			break
		}
		chosen[p] = true
	}
	points := make([]int, 0, len(chosen))
	for p := range chosen {
		points = append(points, p)
	}
	sort.Ints(points)
	return points
}

// statesAt generates the states for one crash point from the replay map
// as it stands after the point's prefix.
func (t *Tracker) statesAt(p int, meta any, lines map[mem.Addr]*lineTrack, opts Options, r *sim.Rand) []State {
	var lcs []lineCands
	for line, lt := range lines {
		floor := lt.fenced
		if floor == nil {
			hi, _ := t.tracked(line)
			floor = t.baselineLine(hi, line)
		}
		cands := make([][]byte, 0, 1+len(lt.pending))
		cands = append(cands, floor)
		for _, sn := range lt.pending {
			cands = append(cands, sn.data)
		}
		lcs = append(lcs, lineCands{line: line, cands: cands})
	}
	// Canonical line order: map iteration is randomized, hashes are not.
	sort.Slice(lcs, func(i, j int) bool { return lcs[i].line < lcs[j].line })

	product, exhaustive := 1, true
	for _, lc := range lcs {
		product *= len(lc.cands)
		if product > opts.MaxStatesPerPoint {
			exhaustive = false
			break
		}
	}

	var out []State
	idx := make([]int, len(lcs))
	if exhaustive {
		for {
			out = append(out, t.makeState(p, meta, lcs, idx))
			k := 0
			for k < len(idx) {
				idx[k]++
				if idx[k] < len(lcs[k].cands) {
					break
				}
				idx[k] = 0
				k++
			}
			if k == len(idx) {
				break
			}
		}
		return out
	}
	// Sampled: the two corner states first (nothing uncertain survived /
	// everything latest survived), then seeded random picks. Duplicates
	// are squeezed out by the caller's hash dedup.
	out = append(out, t.makeState(p, meta, lcs, idx))
	for i, lc := range lcs {
		idx[i] = len(lc.cands) - 1
	}
	out = append(out, t.makeState(p, meta, lcs, idx))
	for n := 2; n < opts.MaxStatesPerPoint; n++ {
		for i, lc := range lcs {
			idx[i] = r.Intn(len(lc.cands))
		}
		out = append(out, t.makeState(p, meta, lcs, idx))
	}
	return out
}

// makeState freezes one candidate choice into a State, hashing the
// lines that differ from the baseline (so identical images reached from
// different points collapse to one hash).
func (t *Tracker) makeState(p int, meta any, lcs []lineCands, idx []int) State {
	st := State{Point: p, Meta: meta, lines: make(map[mem.Addr][]byte)}
	h := fnv.New64a()
	var ab [8]byte
	for i, lc := range lcs {
		data := lc.cands[idx[i]]
		hi, _ := t.tracked(lc.line)
		if bytes.Equal(data, t.baselineLine(hi, lc.line)) {
			continue
		}
		st.lines[lc.line] = data
		binary.LittleEndian.PutUint64(ab[:], uint64(lc.line))
		h.Write(ab[:])
		h.Write(data)
	}
	st.Hash = h.Sum64()
	return st
}

// Materialize builds the post-crash heaps for a state: clones of the
// baseline images with the state's surviving lines patched in,
// preserving each heap's allocation pointer so recovery code can
// allocate safely.
func (t *Tracker) Materialize(st State) []*pmem.Heap {
	out := make([]*pmem.Heap, len(t.heaps))
	for i, h := range t.heaps {
		out[i] = h.CloneWith(t.baselines[i])
	}
	for line, data := range st.lines {
		hi, _ := t.tracked(line)
		out[hi].PutBytes(line, data)
	}
	return out
}

// Violation is one crash state whose recovery check failed.
type Violation struct {
	Point int
	Hash  uint64
	Err   error
}

func (v Violation) Error() string {
	return fmt.Sprintf("crash point %d state %#x: %v", v.Point, v.Hash, v.Err)
}

// Outcome summarizes a Check run.
type Outcome struct {
	Events     int
	Points     int
	States     int
	Violations []Violation
}

// Failed reports whether any state violated its recovery invariants.
func (o Outcome) Failed() bool { return len(o.Violations) > 0 }

func (o Outcome) String() string {
	return fmt.Sprintf("%d events, %d crash points, %d states, %d violations",
		o.Events, o.Points, o.States, len(o.Violations))
}

// Check enumerates the trace's survivable states and runs fn — the
// structure's recovery path plus invariant checks — against each
// materialized image. A panic inside fn is captured as a violation of
// that state. It requires exactly one tracked heap (the persistent
// one); volatile heaps must not be tracked, since a real crash clears
// them.
func (t *Tracker) Check(opts Options, fn func(img *pmem.Heap, meta any) error) Outcome {
	if len(t.heaps) != 1 {
		panic("crash: Check requires exactly one tracked heap")
	}
	states := t.States(opts)
	points := make(map[int]bool)
	o := Outcome{Events: len(t.events), States: len(states)}
	for _, st := range states {
		points[st.Point] = true
		img := t.Materialize(st)[0]
		if err := runCheck(fn, img, st.Meta); err != nil {
			o.Violations = append(o.Violations, Violation{Point: st.Point, Hash: st.Hash, Err: err})
		}
	}
	o.Points = len(points)
	return o
}

func runCheck(fn func(*pmem.Heap, any) error, img *pmem.Heap, meta any) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("recovery panicked: %v", p)
		}
	}()
	return fn(img, meta)
}
