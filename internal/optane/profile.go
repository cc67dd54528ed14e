// Package optane models an Intel Optane DC persistent memory DIMM at the
// level of detail the paper infers from measurements: a 3D-XPoint media
// back-end with asymmetric read/write concurrency, an address indirection
// table (AIT) cache, a FIFO read buffer that is exclusive with respect to
// the CPU caches, and a write-combining buffer with generation-specific
// write-back and eviction policies.
//
// All timing constants live in Profile and are calibrated so that the
// application-perceived latencies land in the ranges the paper reports
// (see DESIGN.md §5); the *mechanisms* are what reproduce the shapes of
// the paper's figures.
package optane

import "optanesim/internal/sim"

// Profile holds the architectural and timing parameters of one DIMM
// generation.
type Profile struct {
	// Name identifies the profile ("G1" or "G2").
	Name string
	// Generation is 1 or 2.
	Generation int

	// ReadBufLines is the capacity of the on-DIMM read buffer in XPLines
	// (G1: 64 = 16 KB, G2: 88 = 22 KB; §3.1).
	ReadBufLines int

	// WriteBufLines is the capacity of the write-combining buffer in
	// XPLines (64 = 16 KB; §3.2).
	WriteBufLines int
	// WriteBufHighWater is the occupancy at which eviction begins. The
	// paper finds G1 partial writes spill at 12 KB (48 lines) while G2's
	// knee exceeds 12 KB (we use the full 64).
	WriteBufHighWater int
	// WriteBufBatchEvict is how many random victims are evicted at once
	// when the high watermark is reached. G1 evicts in batches (sharp
	// Fig. 4 knee); G2 evicts single victims (graceful decline).
	WriteBufBatchEvict int
	// PeriodicWritebackCycles is the interval after which a fully
	// written XPLine is written back to the media on G1 (~5000 cycles,
	// §3.2). Zero disables periodic write-back (G2).
	PeriodicWritebackCycles sim.Cycles

	// AITEntries and AITGranuleBits size the address indirection table
	// cache: 4096 entries of 4 KB granules = 16 MB coverage, matching
	// the §3.6 latency knee.
	AITEntries     int
	AITGranuleBits uint
	// AITMissCycles is the extra media latency of an AIT cache miss.
	AITMissCycles sim.Cycles

	// MediaReadCycles is the service time of one 256 B XPLine read from
	// the 3D-XPoint media; ReadPorts media reads proceed in parallel.
	MediaReadCycles sim.Cycles
	ReadPorts       int
	// MediaWriteCycles is the service time of one XPLine media write;
	// WritePorts writes proceed in parallel. Writes have markedly lower
	// concurrency than reads (§2.2).
	MediaWriteCycles sim.Cycles
	WritePorts       int

	// BufReadHitCycles is the DIMM-side service time for a cacheline
	// read served by the read or write buffer.
	BufReadHitCycles sim.Cycles
	// WriteAcceptCycles is the DIMM-side service time to absorb one 64 B
	// write into the write-combining buffer.
	WriteAcceptCycles sim.Cycles

	// RAPWindowCycles is the read-after-persist hazard window: a read
	// arriving at the DIMM within this many cycles of the line's WPQ
	// acceptance stalls until the window closes (the flush must complete
	// before the line is readable; §3.5).
	RAPWindowCycles sim.Cycles

	// SeqReadFloorCycles is a media-port occupancy floor on dependent
	// loads served from prefetched cache lines: consecutive completions
	// of such loads on one thread are spaced at least this far apart.
	// Hardware prefetchers hide the media's XPLine fetch behind the
	// demand stream, but a dependent chain still observes per-line media
	// occupancy end to end (§3.6's 169-174 ns sequential pointer chase);
	// without the floor the simulated chain pipelines the prefetch
	// perfectly and lands ~4.6x below the published latency. Independent
	// (bandwidth-style) loads are unaffected. Zero disables the floor.
	SeqReadFloorCycles sim.Cycles

	// ReadBufRetainsServedLines is an ablation knob: when set, the read
	// buffer does NOT consume a cacheline once it is served to the CPU
	// (i.e. it stops being exclusive with the caches). The paper's
	// Fig. 2 floor of RA = 1 demonstrates the real hardware is
	// exclusive; flipping this shows RA would otherwise drop to ~0.
	ReadBufRetainsServedLines bool
}

// G1 returns the profile of a 1st-generation (100-series) Optane DIMM as
// characterized by the paper.
func G1() Profile {
	return Profile{
		Name:                    "G1",
		Generation:              1,
		ReadBufLines:            64, // 16 KB
		WriteBufLines:           64, // 16 KB
		WriteBufHighWater:       48, // 12 KB partial-write knee
		WriteBufBatchEvict:      16,
		PeriodicWritebackCycles: 5000,
		AITEntries:              4096,
		AITGranuleBits:          12,
		AITMissCycles:           170,
		MediaReadCycles:         500,
		ReadPorts:               6,
		MediaWriteCycles:        450,
		WritePorts:              2,
		BufReadHitCycles:        180,
		WriteAcceptCycles:       40,
		RAPWindowCycles:         2200,
		SeqReadFloorCycles:      360, // ~171 ns per dependent prefetched line at 2.1 GHz
	}
}

// G2 returns the profile of a 2nd-generation (200-series) Optane DIMM:
// a slightly larger read buffer, no periodic full-line write-back, a
// graceful single-victim write-buffer eviction, and a higher buffer-hit
// latency reflecting the G2 platform's added coherence cost (§3.5).
func G2() Profile {
	return Profile{
		Name:                    "G2",
		Generation:              2,
		ReadBufLines:            88, // 22 KB
		WriteBufLines:           64,
		WriteBufHighWater:       64,
		WriteBufBatchEvict:      1,
		PeriodicWritebackCycles: 0,
		AITEntries:              4096,
		AITGranuleBits:          12,
		AITMissCycles:           190,
		MediaReadCycles:         520,
		ReadPorts:               6,
		MediaWriteCycles:        460,
		WritePorts:              2,
		BufReadHitCycles:        260,
		WriteAcceptCycles:       40,
		RAPWindowCycles:         1700,
		SeqReadFloorCycles:      520, // ~173 ns per dependent prefetched line at 3.0 GHz
	}
}

// Validate reports whether the profile's parameters are internally
// consistent.
func (p *Profile) Validate() error {
	switch {
	case p.ReadBufLines <= 0:
		return errConfig("ReadBufLines must be positive")
	case p.WriteBufLines <= 0:
		return errConfig("WriteBufLines must be positive")
	case p.WriteBufHighWater <= 0 || p.WriteBufHighWater > p.WriteBufLines:
		return errConfig("WriteBufHighWater must be in (0, WriteBufLines]")
	case p.WriteBufBatchEvict <= 0:
		return errConfig("WriteBufBatchEvict must be positive")
	case p.AITEntries <= 0:
		return errConfig("AITEntries must be positive")
	case p.AITGranuleBits == 0:
		return errConfig("AITGranuleBits must be positive")
	case p.ReadPorts <= 0 || p.WritePorts <= 0:
		return errConfig("port counts must be positive")
	case p.MediaReadCycles <= 0 || p.MediaWriteCycles <= 0:
		return errConfig("media service times must be positive")
	}
	return nil
}

type errConfig string

func (e errConfig) Error() string { return "optane: invalid profile: " + string(e) }
