package telemetry

import "optanesim/internal/sim"

// Sample is one gauge observation on the unit timeline.
type Sample struct {
	T sim.Cycles `json:"t"`
	V float64    `json:"v"`
}

// Series is one gauge's sampled time series, in registration order
// within its Recording.
type Series struct {
	Name    string   `json:"series"`
	Samples []Sample `json:"samples"`
}

// Recording is a frozen snapshot of one unit's telemetry, safe to hand
// across goroutines (the runner collects one per unit).
type Recording struct {
	// Unit names the experiment unit, e.g. "fig2/G1".
	Unit string
	// Sources maps Event.Src ids to component names.
	Sources []string
	// Events is the retained event stream, oldest first, on the unit's
	// rebased cycle timeline.
	Events []Event
	// Dropped counts events the bounded ring overwrote before this
	// snapshot; non-zero means Events is the truncated tail.
	Dropped uint64
	// Series holds the sampled gauges in registration order.
	Series []Series
	// EndCycles is the unit timeline's extent (total simulated cycles
	// over all of the unit's machine runs).
	EndCycles sim.Cycles
	// Breakdown holds the cycle-attribution histograms, when the
	// recorder was configured with attribution on (nil otherwise).
	Breakdown *BreakdownRecording
}

// Source returns the name for a source id, or "?" when out of range.
func (r *Recording) Source(id uint8) string {
	if int(id) < len(r.Sources) {
		return r.Sources[id]
	}
	return "?"
}

// sampleChunk is the sampler's allocation granule, in samples. Storage
// grows one fixed-size block at a time, so the steady-state sampling
// path allocates once per sampleChunk observations per column and never
// copies what it has already stored — the append-doubling regrowth that
// used to dominate telemetry-on benchmark bytes/op is gone.
const sampleChunk = 4096

// chunked is an append-only column stored as fixed-capacity blocks.
// Unlike a flat slice it never relocates existing data: appending past a
// block boundary allocates exactly one new block of sampleChunk entries.
type chunked[T any] struct {
	blocks [][]T
	n      int
}

func (c *chunked[T]) append(v T) {
	if c.n%sampleChunk == 0 {
		c.blocks = append(c.blocks, make([]T, 0, sampleChunk))
	}
	last := len(c.blocks) - 1
	c.blocks[last] = append(c.blocks[last], v)
	c.n++
}

func (c *chunked[T]) len() int { return c.n }

func (c *chunked[T]) at(i int) T { return c.blocks[i/sampleChunk][i%sampleChunk] }

// gauge is one registered sampled quantity. Values are stored as a bare
// float64 column; the observation timestamps live once in the sampler's
// shared time column (every registered gauge is sampled at every tick),
// with start recording which global tick the gauge's first value belongs
// to, so a gauge registered mid-unit still reconstructs exactly.
type gauge struct {
	name  string
	fn    func(now sim.Cycles) float64
	start int
	vals  chunked[float64]
}

// sampler snapshots every registered gauge at a fixed simulated-cycle
// period. Gauge functions receive the current machine run's local time
// (they read live component state); samples are stored against the
// rebased unit timeline.
//
// Storage is columnar and chunked: one shared timestamp column plus one
// value column per gauge, each growing in sampleChunk blocks. The
// telemetry-on hot path therefore costs 8 bytes per gauge per
// observation plus one shared 8-byte timestamp — no per-gauge timestamp
// duplication, no copy-on-grow — and allocates only at block
// boundaries.
type sampler struct {
	every  sim.Cycles
	next   sim.Cycles // unit-timeline due time of the next snapshot
	times  chunked[sim.Cycles]
	gauges []gauge
	byName map[string]int
}

func newSampler(every sim.Cycles) *sampler {
	return &sampler{every: every, byName: make(map[string]int)}
}

func (s *sampler) register(name string, fn func(now sim.Cycles) float64) {
	if i, ok := s.byName[name]; ok {
		s.gauges[i].fn = fn
		return
	}
	s.byName[name] = len(s.gauges)
	s.gauges = append(s.gauges, gauge{name: name, fn: fn, start: s.times.len()})
}

// sample records one observation of every gauge: at is the unit-timeline
// timestamp, now the run-local time passed to the gauge functions.
func (s *sampler) sample(at, now sim.Cycles) {
	s.times.append(at)
	for i := range s.gauges {
		g := &s.gauges[i]
		g.vals.append(g.fn(now))
	}
	s.next = at + s.every
}

// snapshot copies the accumulated series, rehydrating each gauge's
// (timestamp, value) rows from the columnar store.
func (s *sampler) snapshot() []Series {
	out := make([]Series, len(s.gauges))
	for i := range s.gauges {
		g := &s.gauges[i]
		samples := make([]Sample, g.vals.len())
		for j := range samples {
			samples[j] = Sample{T: s.times.at(g.start + j), V: g.vals.at(j)}
		}
		out[i] = Series{Name: g.name, Samples: samples}
	}
	return out
}
