package machine

import (
	"optanesim/internal/cache"
	"optanesim/internal/sim"
)

// CPUProfile describes the simulated processor: cache geometry, the
// cost of individual memory operations, the out-of-order load window,
// and the generation-specific clwb semantics that drive §3.5.
type CPUProfile struct {
	// Name identifies the profile ("G1-Xeon", "G2-Xeon").
	Name string
	// Generation is 1 or 2, matching the paired Optane generation.
	Generation int

	// L1, L2 are per-core cache configurations; L3 is shared.
	L1, L2, L3 cache.Config

	// EADR models the extended-ADR platform of §6: the CPU caches are
	// inside the persistence domain, so cacheline flushes are
	// unnecessary — CLWB becomes a no-op costing only its issue slot,
	// and stores are durable once globally visible. The paper's G2
	// testbed has eADR DISABLED; this knob exists for the forward-
	// looking ablation.
	EADR bool
	// CLWBInvalidates selects the G1 behaviour where clwb evicts the
	// flushed line from the caches; on G2 the line remains cached
	// (clean), which eliminates the clwb read-after-persist hazard.
	CLWBInvalidates bool
	// InvalidateDelayOps is the pipeline depth (in ops of the flushing
	// thread) before a G1 clwb's invalidation takes effect; loads that
	// issue within it can still hit the cached copy (the sfence
	// distance<=1 dip in Fig. 7). Loads from other threads always see
	// the invalidation.
	InvalidateDelayOps uint64
	// OOOWindow is how far ahead of retirement a load may issue when no
	// mfence orders it.
	OOOWindow sim.Cycles

	// Per-op front-end costs.
	LoadIssueCycles    sim.Cycles
	StoreCycles        sim.Cycles
	NTStoreIssueCycles sim.Cycles
	FlushIssueCycles   sim.Cycles
	FenceBaseCycles    sim.Cycles

	// MaxOutstandingFlushes bounds how many flushes/nt-stores may be
	// in flight before the core stalls (write-combining buffer depth).
	// Zero selects 8.
	MaxOutstandingFlushes int

	// HTSharePenaltyPct inflates front-end op costs by this percentage
	// when two hardware threads share a core (hyperthread contention on
	// issue ports). Memory stalls are unaffected.
	HTSharePenaltyPct int

	// CLWBKeepExtra is the added coherence cost of a clwb that retains
	// the line in the cache (G2 semantics; §3.5 observes higher
	// buffer-hit and DRAM latencies on G2 platforms).
	CLWBKeepExtra sim.Cycles

	// NUMA penalties for threads on the remote socket.
	RemotePMReadExtra   sim.Cycles
	RemoteDRAMReadExtra sim.Cycles
	RemoteWriteExtra    sim.Cycles

	// FrequencyGHz is used only to convert cycles to wall-clock for
	// bandwidth reporting.
	FrequencyGHz float64
}

// G1CPU returns the profile of the first testbed (Xeon Gold 6320-class,
// 2.1 GHz): 32 KB L1d, 1 MB L2, 27.5 MB shared L3.
func G1CPU() CPUProfile {
	return CPUProfile{
		Name:       "G1-Xeon",
		Generation: 1,
		L1:         cache.Config{Name: "L1d", Size: 32 << 10, Assoc: 8, HitCycles: 4},
		L2:         cache.Config{Name: "L2", Size: 1 << 20, Assoc: 16, HitCycles: 14},
		L3:         cache.Config{Name: "L3", Size: 28835840, Assoc: 11, HitCycles: 50},

		CLWBInvalidates:    true,
		InvalidateDelayOps: 6,
		OOOWindow:          150,

		LoadIssueCycles:    1,
		StoreCycles:        4,
		NTStoreIssueCycles: 10,
		FlushIssueCycles:   18,
		FenceBaseCycles:    20,

		MaxOutstandingFlushes: 8,
		HTSharePenaltyPct:     60,

		RemotePMReadExtra:   500,
		RemoteDRAMReadExtra: 130,
		RemoteWriteExtra:    250,

		FrequencyGHz: 2.1,
	}
}

// G2CPU returns the profile of the second testbed (Xeon Gold 5317-class,
// 3.0 GHz): 48 KB L1d, 2.5 MB L2 per core, 36 MB shared L3. clwb does
// not invalidate, matching the G2 finding in §3.5.
func G2CPU() CPUProfile {
	return CPUProfile{
		Name:       "G2-Xeon",
		Generation: 2,
		L1:         cache.Config{Name: "L1d", Size: 48 << 10, Assoc: 12, HitCycles: 5},
		L2:         cache.Config{Name: "L2", Size: 2621440, Assoc: 16, HitCycles: 16},
		L3:         cache.Config{Name: "L3", Size: 36 << 20, Assoc: 12, HitCycles: 55},

		CLWBInvalidates:    false,
		InvalidateDelayOps: 6,
		OOOWindow:          150,

		LoadIssueCycles:    1,
		StoreCycles:        4,
		NTStoreIssueCycles: 10,
		FlushIssueCycles:   24,
		FenceBaseCycles:    24,

		MaxOutstandingFlushes: 8,
		HTSharePenaltyPct:     60,
		CLWBKeepExtra:         130,

		RemotePMReadExtra:   550,
		RemoteDRAMReadExtra: 150,
		RemoteWriteExtra:    280,

		FrequencyGHz: 3.0,
	}
}
