package imc

import "optanesim/internal/sim"

// clone returns an independent copy of the ring, preserving head, count,
// lastLand and every entry's landing time.
func (q *wpq) clone() *wpq {
	n := &wpq{
		land:     make([]sim.Cycles, len(q.land)),
		head:     q.head,
		count:    q.count,
		lastLand: q.lastLand,
	}
	copy(n.land, q.land)
	return n
}

// clone copies the table verbatim — including tombstones and probe-chain
// layout. Which entries exist WHEN is observable (see the type comment),
// and so is the exact slot arrangement: growth and prune triggers depend
// on used/live, and iteration order during rebuild follows slot order.
func (t *hazardTable) clone() *hazardTable {
	n := &hazardTable{
		keys:  make([]uint64, len(t.keys)),
		vals:  make([]sim.Cycles, len(t.vals)),
		live:  t.live,
		used:  t.used,
		shift: t.shift,
	}
	copy(n.keys, t.keys)
	copy(n.vals, t.vals)
	return n
}

// Clone returns an independent controller over devs, which must be
// clones of the original's devices in the same order. WPQ rings, the
// hazard table, the prune counter and high-water marks all carry over,
// so the forked controller admits, stalls and prunes exactly as the
// original would. Observers (telemetry, attribution, write observer,
// faults) are not carried.
func (c *Controller) Clone(devs ...Device) *Controller {
	if len(devs) != len(c.devs) {
		panic("imc: Clone device count mismatch")
	}
	n := &Controller{
		cfg:         c.cfg,
		devs:        devs,
		hazards:     c.hazards.clone(),
		hazardPrune: c.hazardPrune,
		maxNow:      c.maxNow,
		wpqPeak:     c.wpqPeak,
	}
	n.wpqs = make([]*wpq, 0, len(c.wpqs))
	for _, q := range c.wpqs {
		n.wpqs = append(n.wpqs, q.clone())
	}
	return n
}
