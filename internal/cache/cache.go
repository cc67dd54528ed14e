// Package cache implements the set-associative CPU cache hierarchy of
// the simulated machine: per-core L1d and L2 plus a shared L3, with LRU
// replacement, write-allocate stores, dirty write-back cascades, and the
// cacheline flush semantics (clwb/clflushopt) whose generation-specific
// behaviour drives the paper's read-after-persist findings.
package cache

import (
	"fmt"
	"math/bits"

	"optanesim/internal/mem"
	"optanesim/internal/sim"
	"optanesim/internal/telemetry"
)

// Config describes one cache level.
type Config struct {
	// Name identifies the level in diagnostics ("L1d", "L2", "L3").
	Name string
	// Size is the capacity in bytes.
	Size int
	// Assoc is the set associativity.
	Assoc int
	// HitCycles is the load-to-use latency of a hit at this level.
	HitCycles sim.Cycles
}

// Line is one cacheline frame. Exported fields are manipulated by the
// machine layer (flush bookkeeping, prefetch confirmation). The layout
// is hot-first and padded to 64 bytes: the fields a predicted load/store
// hit touches (ReadyAt, lastUse, the flag bytes) share one host
// cacheline, and padding keeps every frame line-aligned within the ways
// array.
type Line struct {
	// ReadyAt is when the fill completes; demand hits before this stall.
	ReadyAt sim.Cycles
	lastUse uint64
	addr    mem.Addr // line-aligned tag; meaningful only when valid
	// FlushedSeq is the flushing thread's op index at clwb time and
	// FlushedBy its thread id; together they implement the op-distance
	// bypass window.
	FlushedSeq uint64
	FlushedBy  int
	valid      bool
	// Dirty marks modified data that must be written back on eviction.
	Dirty bool
	// Prefetched marks a line installed by a prefetcher and not yet
	// demanded; the first demand hit "confirms" it.
	Prefetched bool
	// Flushed marks a pending G1 clwb on this line: the line remains
	// readable by the flushing thread for a few more instructions (the
	// pipeline depth of the invalidation, §3.5) and is then evicted.
	Flushed bool

	_ [12]byte // pad to 64
}

// Addr returns the line's tag address.
func (l *Line) Addr() mem.Addr { return l.addr }

// Victim describes a line displaced by an insertion.
type Victim struct {
	Addr  mem.Addr
	Dirty bool
}

// Cache is one set-associative cache level. It is not safe for
// concurrent use.
type Cache struct {
	cfg   Config
	nsets int
	ways  []Line // nsets * assoc, row-major by set
	// tags mirrors ways' (valid, addr) pairs as line|1 per occupied way
	// (0 = invalid). Lookups scan this compact array — a whole 8-way set
	// fits in one host cacheline — instead of striding across Line structs.
	tags []uint64
	tick uint64

	// Set-index fast path: pow2 set counts reduce to a mask; other
	// geometries use a Lemire fastmod (exact for every line index below
	// fastmodMax, which covers the whole simulated address space).
	setMask    uint64 // nsets-1 when nsets is a power of two
	setPow2    bool
	fastmodM   uint64 // floor(2^64/nsets) + 1
	fastmodMax uint64 // exactness bound on the line index

	// pred is a direct-mapped way predictor: pred[line mod predSlots]
	// holds the flat ways index where that line was last found. Entries
	// are self-validating — the fast path re-checks the pointed-to
	// frame's own valid+addr, one dependent load after the predictor
	// probe — so collisions and stale slots cost only the fallback scan,
	// and no invalidation hooks are needed. It turns the repeated lookups of the
	// strided access pattern every experiment produces into one predicted
	// load apiece.
	pred []int32

	// occupied counts valid lines. Its only fast-path use is the == 0
	// test: a completely empty level (L2/L3 during a pure store+flush
	// phase) answers every probe with one branch instead of a set scan.
	occupied int

	hits, misses uint64
	// predHits/predMisses split the lookups by way-predictor outcome
	// (direct probe hit vs set-scan fallback).
	predHits, predMisses uint64

	// tel, when non-nil, receives fill/eviction events; nil keeps the
	// disabled path to a single pointer test.
	tel *telemetry.Probe
}

// predSlots sizes the way predictor (predMask indexes it). 1024 slots
// cover four L1s' worth of distinct lines; larger working sets degrade
// to the set scan, never to wrong answers.
const (
	predSlots = 1 << 10
	predMask  = predSlots - 1
)

// New builds a cache level. Size must be a multiple of Assoc cachelines.
func New(cfg Config) *Cache {
	lines := cfg.Size / mem.CachelineSize
	if cfg.Assoc <= 0 || lines < cfg.Assoc || lines%cfg.Assoc != 0 {
		panic(fmt.Sprintf("cache: bad geometry for %s: %d bytes, %d-way", cfg.Name, cfg.Size, cfg.Assoc))
	}
	c := &Cache{
		cfg:   cfg,
		nsets: lines / cfg.Assoc,
		ways:  make([]Line, lines),
		tags:  make([]uint64, lines),
		pred:  make([]int32, predSlots),
	}
	n := uint64(c.nsets)
	if n&(n-1) == 0 {
		c.setPow2 = true
		c.setMask = n - 1
	} else {
		// Lemire's fastmod: with M = floor(2^64/n)+1, the identity
		// mulhi(M*x, n) == x%n holds for all x < 2^64/(n·(1+eps));
		// 2^63/n is a conservative, cheap-to-check bound. Line indices
		// are physical addresses >> 6, far below it for any real nsets.
		c.fastmodM = ^uint64(0)/n + 1
		c.fastmodMax = (uint64(1) << 63) / n
	}
	return c
}

// NewReusing is New with donor storage: when donor has the same
// geometry, its arrays are reset in place and donor itself is returned
// as the fresh level, so no allocation (and no allocator re-zeroing of
// the multi-megabyte line array) happens. The reset is sparse — it
// walks the compact tag mirror and clears only occupied frames, since
// tags[i] != 0 exactly marks the nonzero frames (Insert fully
// overwrites its slot, and Invalidate zeroes frame and tag together) —
// so its cost is bounded by the donor's touched footprint, not its
// geometry (28.8 MB of frames for G1's L3). A mismatched or nil
// donor falls back to New. Ownership transfers: the donor must not be
// used by its previous owner after this call.
func NewReusing(cfg Config, donor *Cache) *Cache {
	if donor == nil || donor.cfg != cfg {
		return New(cfg)
	}
	c := donor
	tags := c.tags
	ways := c.ways
	for i := range tags {
		if tags[i] != 0 {
			ways[i] = Line{}
			tags[i] = 0
		}
	}
	for i := range c.pred {
		c.pred[i] = 0
	}
	c.tick, c.hits, c.misses = 0, 0, 0
	c.predHits, c.predMisses = 0, 0
	c.occupied = 0
	c.tel = nil
	return c
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// HitCycles returns the level's hit latency.
func (c *Cache) HitCycles() sim.Cycles { return c.cfg.HitCycles }

// setIndex maps a line address to its set number. The result is
// identical to (line/CachelineSize) % nsets by construction; only the
// arithmetic route differs.
func (c *Cache) setIndex(la mem.Addr) int {
	x := uint64(la) >> lineShift
	if c.setPow2 {
		return int(x & c.setMask)
	}
	if x < c.fastmodMax {
		hi, _ := bits.Mul64(c.fastmodM*x, uint64(c.nsets))
		return int(hi)
	}
	return int(x % uint64(c.nsets))
}

// lineShift is log2(CachelineSize); addresses shift right by it to form
// line indices.
const lineShift = 6

// Lookup finds the line containing addr, updating LRU state. It returns
// nil on a miss.
func (c *Cache) Lookup(addr mem.Addr) *Line {
	la := addr.Line()
	if l := c.PredictLine(la); l != nil {
		c.Touch(l)
		return l
	}
	c.predMisses++
	l := c.peekSlow(la)
	if l == nil {
		c.misses++
		return nil
	}
	c.tick++
	l.lastUse = c.tick
	c.hits++
	return l
}

// PredictLine returns the line containing addr if the way predictor
// directly hits, with NO LRU or statistics update — the caller must
// either call Touch on the result to commit the hit, or fall back to
// Lookup. It is small enough to inline, which is the point: hot callers
// pair PredictLine+Touch to resolve the common case without a function
// call. addr must be line-aligned.
func (c *Cache) PredictLine(la mem.Addr) *Line {
	l := &c.ways[c.pred[(uint64(la)>>lineShift)&predMask]]
	if l.valid && l.addr == la {
		return l
	}
	return nil
}

// Touch commits a PredictLine hit: the LRU and hit-counter updates
// Lookup would have performed.
func (c *Cache) Touch(l *Line) {
	c.tick++
	l.lastUse = c.tick
	c.hits++
	c.predHits++
}

// Peek finds the line containing addr without updating LRU or hit/miss
// statistics.
func (c *Cache) Peek(addr mem.Addr) *Line {
	la := addr.Line()
	if l := c.PredictLine(la); l != nil {
		return l
	}
	return c.peekSlow(la)
}

// peekSlow is the set scan behind Peek and Lookup on a way-predictor
// miss.
func (c *Cache) peekSlow(la mem.Addr) *Line {
	if c.occupied == 0 {
		return nil
	}
	key := uint64(la) | 1
	base := c.setIndex(la) * c.cfg.Assoc
	tags := c.tags[base : base+c.cfg.Assoc]
	for i := range tags {
		if tags[i] == key {
			c.pred[(uint64(la)>>lineShift)&predMask] = int32(base + i)
			return &c.ways[base+i]
		}
	}
	return nil
}

// Insert installs the line containing addr, evicting the LRU way if the
// set is full. It returns the displaced victim, if any. If the line is
// already present it is updated in place (no victim).
func (c *Cache) Insert(addr mem.Addr, dirty, prefetched bool, readyAt sim.Cycles) (Victim, bool) {
	la := addr.Line()
	key := uint64(la) | 1
	base := c.setIndex(la) * c.cfg.Assoc
	set := c.ways[base : base+c.cfg.Assoc]
	tags := c.tags[base : base+c.cfg.Assoc]
	c.tick++
	// One compact pass: update in place if present, else note the first
	// invalid way.
	slot := -1
	for i, k := range tags {
		if k == key {
			set[i].Dirty = set[i].Dirty || dirty
			set[i].Prefetched = set[i].Prefetched && prefetched
			if readyAt > set[i].ReadyAt {
				set[i].ReadyAt = readyAt
			}
			set[i].lastUse = c.tick
			c.pred[(uint64(la)>>lineShift)&predMask] = int32(base + i)
			return Victim{}, false
		}
		if k == 0 && slot < 0 {
			slot = i
		}
	}
	var victim Victim
	evicted := false
	if slot < 0 {
		slot = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[slot].lastUse {
				slot = i
			}
		}
		victim = Victim{Addr: set[slot].addr, Dirty: set[slot].Dirty}
		evicted = true
		if c.tel != nil {
			var dirtyArg uint64
			if victim.Dirty {
				dirtyArg = 1
			}
			c.tel.Emit(readyAt, telemetry.KindCacheEvict, victim.Addr, dirtyArg)
		}
	} else {
		c.occupied++
	}
	if c.tel != nil {
		c.tel.Emit(readyAt, telemetry.KindCacheFill, la, 0)
	}
	set[slot] = Line{
		addr:       la,
		valid:      true,
		Dirty:      dirty,
		Prefetched: prefetched,
		ReadyAt:    readyAt,
		lastUse:    c.tick,
	}
	c.tags[base+slot] = key
	c.pred[(uint64(la)>>lineShift)&predMask] = int32(base + slot)
	return victim, evicted
}

// Invalidate removes the line containing addr, reporting whether it was
// present and dirty.
func (c *Cache) Invalidate(addr mem.Addr) (present, dirty bool) {
	if c.occupied == 0 {
		return false, false
	}
	la := addr.Line()
	key := uint64(la) | 1
	if i := int(c.pred[(uint64(la)>>lineShift)&predMask]); c.ways[i].valid && c.ways[i].addr == la {
		dirty = c.ways[i].Dirty
		c.ways[i] = Line{}
		c.tags[i] = 0
		c.occupied--
		return true, dirty
	}
	base := c.setIndex(la) * c.cfg.Assoc
	set := c.ways[base : base+c.cfg.Assoc]
	for i := range set {
		if c.tags[base+i] == key {
			dirty = set[i].Dirty
			set[i] = Line{}
			c.tags[base+i] = 0
			c.occupied--
			return true, dirty
		}
	}
	return false, false
}

// Stats reports accumulated hits and misses.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// PredStats reports lookups resolved by the way predictor's direct probe
// versus ones that fell back to the set scan.
func (c *Cache) PredStats() (hits, misses uint64) { return c.predHits, c.predMisses }

// SetTelemetry attaches (or, with nil, detaches) the level's event probe.
func (c *Cache) SetTelemetry(p *telemetry.Probe) { c.tel = p }
