// Package prefetch models the three CPU cache prefetchers the paper
// toggles via BIOS (§3.4): the L2 hardware streamer, the adjacent
// (next-line) prefetcher, and the DCU streamer. Each can be enabled
// independently; their per-trigger aggressiveness is calibrated so the
// wasted-traffic ratios of Fig. 6 land in the measured ranges while the
// region structure (read buffer / LLC / media) emerges from the cache
// and buffer models.
package prefetch

import "optanesim/internal/mem"

// Config selects which prefetchers are active on a core.
type Config struct {
	// HW enables the L2 hardware stream prefetcher: stride-detecting,
	// conservative on short streams, deep (ramping) on long ones.
	HW bool
	// Adjacent enables the next-line prefetcher: one line ahead on each
	// demand miss or prefetch confirmation.
	Adjacent bool
	// DCU enables the DCU streamer: four lines ahead on each demand miss
	// or confirmation — the most aggressive, matching Fig. 6(d).
	DCU bool
}

// All returns a config with every prefetcher enabled (the platform
// default the non-§3.4 experiments run under).
func All() Config { return Config{HW: true, Adjacent: true, DCU: true} }

// None returns a config with prefetching disabled.
func None() Config { return Config{} }

// Any reports whether at least one prefetcher is enabled.
func (c Config) Any() bool { return c.HW || c.Adjacent || c.DCU }

const (
	pageBits = 12 // prefetchers do not cross 4 KB page boundaries
	pageSize = 1 << pageBits

	// hwTrainLength is how many accesses with a stable stride the HW
	// streamer needs before its first prefetch.
	hwTrainLength = 4
	// hwShortThrottle fires the first prefetch of a freshly trained
	// stream only once every N trainings, modeling the streamer's
	// confidence throttling on short streams (keeps Fig. 6(b)'s PM read
	// ratio near the measured ~1.25 instead of ~2).
	hwShortThrottle = 4
	// hwMaxDegreePerTrigger bounds new prefetches per access.
	hwMaxDegreePerTrigger = 2
	// hwMaxDistance bounds how far ahead (in strides) a mature stream
	// prefetches.
	hwMaxDistance = 16

	// dcuDegree is how many next lines the DCU streamer requests per
	// trigger.
	dcuDegree = 4

	// maxStreams bounds the HW streamer's per-page tracking table.
	maxStreams = 16
)

// stream is one tracked access stream within a 4 KB page.
type stream struct {
	page      uint64
	lastLine  mem.Addr
	stride    int64 // in bytes, positive = ascending
	count     int   // accesses with this stride
	lastAhead mem.Addr
	lru       uint64
}

// Unit is the per-core prefetch engine. It is not safe for concurrent
// use.
type Unit struct {
	cfg      Config
	streams  [maxStreams]stream
	tick     uint64
	throttle int

	issued uint64 // prefetches proposed (before cache dedup)
	buf    []mem.Addr
}

// NewUnit builds a prefetch engine with the given configuration.
func NewUnit(cfg Config) *Unit { return &Unit{cfg: cfg} }

// Config returns the unit's configuration.
func (u *Unit) Config() Config { return u.cfg }

// Issued reports how many prefetch candidates the unit has proposed.
func (u *Unit) Issued() uint64 { return u.issued }

// OnAccess informs the unit of a demand access to addr. miss reports a
// demand miss in the triggering level; confirmed reports a demand hit on
// a prefetched line. It returns the candidate prefetch addresses (line-
// aligned, page-bounded); the caller dedups them against cache contents.
func (u *Unit) OnAccess(addr mem.Addr, miss, confirmed bool) []mem.Addr {
	if !u.cfg.Any() {
		return nil
	}
	u.buf = u.buf[:0]
	line := addr.Line()
	trigger := miss || confirmed

	if u.cfg.Adjacent && trigger {
		u.propose(line, line+mem.CachelineSize)
	}
	if u.cfg.DCU && trigger {
		for i := 1; i <= dcuDegree; i++ {
			u.propose(line, line+mem.Addr(i*mem.CachelineSize))
		}
	}
	if u.cfg.HW {
		u.hwStream(line)
	}
	u.issued += uint64(len(u.buf))
	return u.buf
}

// hwStream updates the stride-detecting stream table and proposes
// prefetches for the stream containing line.
func (u *Unit) hwStream(line mem.Addr) {
	page := uint64(line) >> pageBits
	u.tick++

	s := u.findStream(page)
	if s == nil {
		s = u.allocStream(page)
		s.lastLine = line
		s.stride = 0
		s.count = 1
		s.lastAhead = line
		return
	}
	s.lru = u.tick
	delta := int64(line) - int64(s.lastLine)
	s.lastLine = line
	switch {
	case delta == 0:
		return // repeat access; no stream progress
	case delta == s.stride && delta > 0 && delta <= 8*mem.CachelineSize:
		s.count++
	case delta > 0 && delta <= 8*mem.CachelineSize:
		s.stride = delta
		s.count = 2
		s.lastAhead = line
		return
	default:
		s.stride = 0
		s.count = 1
		s.lastAhead = line
		return
	}

	if s.count < hwTrainLength {
		return
	}
	if s.count == hwTrainLength {
		// Freshly trained short stream: throttled single-line prefetch.
		u.throttle++
		if u.throttle%hwShortThrottle != 0 {
			s.lastAhead = line
			return
		}
		next := line + mem.Addr(s.stride)
		u.propose(line, next)
		s.lastAhead = next
		return
	}
	// Mature stream: ramping distance, bounded issue rate.
	distance := s.count - hwTrainLength
	if distance > hwMaxDistance {
		distance = hwMaxDistance
	}
	limit := line + mem.Addr(int64(distance)*s.stride)
	issuedHere := 0
	for next := s.lastAhead + mem.Addr(s.stride); next <= limit && issuedHere < hwMaxDegreePerTrigger; next += mem.Addr(s.stride) {
		if next <= line {
			continue
		}
		if !u.propose(line, next) {
			break
		}
		s.lastAhead = next
		issuedHere++
	}
	if s.lastAhead < line {
		s.lastAhead = line
	}
}

func (u *Unit) findStream(page uint64) *stream {
	for i := range u.streams {
		if u.streams[i].count > 0 && u.streams[i].page == page {
			return &u.streams[i]
		}
	}
	return nil
}

func (u *Unit) allocStream(page uint64) *stream {
	slot := 0
	for i := range u.streams {
		if u.streams[i].count == 0 {
			slot = i
			break
		}
		if u.streams[i].lru < u.streams[slot].lru {
			slot = i
		}
	}
	u.streams[slot] = stream{page: page, lru: u.tick}
	return &u.streams[slot]
}

// propose appends target if it stays within trigger's 4 KB page,
// reporting whether it did.
func (u *Unit) propose(trigger, target mem.Addr) bool {
	if uint64(trigger)>>pageBits != uint64(target)>>pageBits {
		return false
	}
	for _, a := range u.buf {
		if a == target {
			return true
		}
	}
	u.buf = append(u.buf, target)
	return true
}
