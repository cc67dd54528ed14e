package machine

import (
	"fmt"

	"optanesim/internal/cache"
	"optanesim/internal/imc"
	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

// Snapshot is a frozen deep copy of a System between Runs: cache
// hierarchies (tags, way-predictor state, line flags), iMC state (WPQ
// rings, hazard table, high-water marks), on-DIMM state (read buffer,
// write-buffer residency table, AIT cache, periodic write-back queue),
// DRAM port schedules, traffic counters, and the carry state of every
// thread retained by the last RunPhase (clocks, store queues, flush
// rings, tag accounting). Fork reconstitutes an independent live System
// from it in O(state) time — no re-simulation — so a sweep can warm a
// shared prefix once and fork per cell.
//
// A Snapshot captures simulated-machine state only. Host-side workload
// state (pmem heap contents, workload RNGs, chase lists) lives outside
// the machine layer; callers that need it across a fork save and
// restore it themselves (see bench's WarmSweep).
type Snapshot struct {
	src     *System
	threads []threadState
	// spares are recycled donor systems (see Recycle): each Fork pops
	// one and reuses its cache arrays — the bulk of a System's
	// footprint — instead of allocating and zeroing fresh ones.
	spares []*System
}

// threadState is the carry state of one finished thread, captured with
// capacity-preserving slice copies so a revived thread has the exact
// steady-state allocation behaviour of the original.
type threadState struct {
	name   string
	coreID int
	remote bool
	id     int

	now         sim.Cycles
	loadBarrier sim.Cycles
	pfFree      sim.Cycles
	pending     []sim.Cycles
	lazyFlushed []mem.Addr
	flushRing   []sim.Cycles
	flushHead   int
	tagCycles   []sim.Cycles
	curTag      int
	lastTagName string
	lastTagID   int
	ops         uint64
	tenantName  string
}

// Snapshot captures the system's complete simulated state. The system
// must be idle: not inside Run, with no threads registered via Go that
// have not run yet. Observers (telemetry recorder, persist observer,
// fault injector, operation traces) are not captured — snapshot a bare
// warmed system and attach observers to each fork. The source system
// remains untouched and fully usable.
func (s *System) Snapshot() *Snapshot { return s.SnapshotReusing() }

// SnapshotReusing is Snapshot with donor storage: the first donor's
// cache arrays back the snapshot's own frozen copy, and the rest seed
// the recycle pool Fork draws from (see Recycle). Donors typically come
// from a previous snapshot's Dispose — warming a sweep of families this
// way allocates cache geometry a constant number of times instead of
// once per fork. Ownership transfers: donors must not be used after
// this call.
func (s *System) SnapshotReusing(donors ...*System) *Snapshot {
	if s.running {
		panic("machine: Snapshot during Run")
	}
	if len(s.threads) != 0 {
		panic("machine: Snapshot with registered unrun threads")
	}
	if s.rec != nil || s.persistFn != nil || s.faults != nil {
		panic("machine: Snapshot with observers attached (telemetry/persist/faults)")
	}
	var first *System
	rest := donors
	if len(donors) > 0 {
		first, rest = donors[0], donors[1:]
	}
	sn := &Snapshot{src: s.cloneState(first)}
	for _, d := range rest {
		sn.Recycle(d)
	}
	sn.threads = make([]threadState, len(s.carry))
	for i, t := range s.carry {
		sn.threads[i] = captureThread(t)
	}
	return sn
}

// Fork builds an independent live System from the snapshot. The carry
// threads are revived in their captured state; resume one with
// Continue. Forks never share mutable state with each other or with
// the snapshot, so cells of a sweep can fork from one warm snapshot in
// any order (or, with independent Systems, concurrently).
func (sn *Snapshot) Fork() *System {
	var spare *System
	if k := len(sn.spares); k > 0 {
		spare = sn.spares[k-1]
		sn.spares = sn.spares[:k-1]
	}
	f := sn.src.cloneState(spare)
	f.carry = make([]*Thread, len(sn.threads))
	for i := range sn.threads {
		f.carry[i] = sn.threads[i].revive(f)
	}
	return f
}

// Recycle hands a finished system's storage back to the snapshot: a
// later Fork copies state into its cache arrays — the bulk of a
// System's footprint — instead of allocating and zeroing fresh ones, so
// a sweep that forks N cells sequentially allocates cache geometry a
// constant number of times, not N+1. Recycle transfers ownership: the
// caller must not touch sys afterwards, and must not recycle the same
// system twice. Suitable donors are this snapshot's own finished forks
// and the warmed source the snapshot was taken from.
func (sn *Snapshot) Recycle(sys *System) {
	if sys == nil || sys.running || sys == sn.src {
		return
	}
	sn.spares = append(sn.spares, sys)
}

// Dispose dismantles the snapshot and returns its retained storage —
// the frozen copy plus every recycled donor — for reuse as donors of a
// later SnapshotReusing. The snapshot must not be used afterwards.
func (sn *Snapshot) Dispose() []*System {
	out := append(sn.spares, sn.src)
	sn.src, sn.spares, sn.threads = nil, nil, nil
	return out
}

// Continue re-registers carry thread i (from a RunPhase on this system,
// or revived by a Snapshot fork) for the next Run with a new body. All
// carry state — clock, pending stores, flush ring, tag accounting —
// persists, so the phases compose to exactly the single-Run execution
// of both bodies chained.
func (s *System) Continue(i int, fn func(*Thread)) *Thread {
	if s.running {
		panic("machine: Continue called while Run in progress")
	}
	t := s.carry[i]
	if t == nil {
		panic(fmt.Sprintf("machine: carry thread %d already continued", i))
	}
	s.carry[i] = nil
	t.fn = fn
	s.threads = append(s.threads, t)
	return t
}

// CarryThreads reports how many finished threads the last RunPhase (or
// fork) retained for Continue.
func (s *System) CarryThreads() int { return len(s.carry) }

// cloneState deep-copies every simulated component of the system into a
// fresh System. Threads, observers and scheduler state are not copied.
// recycle, when non-nil, donates its cache arrays (reused in place via
// cache.CloneInto); pass nil to allocate everything fresh.
func (s *System) cloneState(recycle *System) *System {
	n := &System{
		cfg:         s.cfg,
		pmDemand:    s.pmDemand,
		dramDemand:  s.dramDemand,
		nextTID:     s.nextTID,
		isolated:    s.isolated,
		compatSched: s.compatSched,
		tagIDs:      make(map[string]int, len(s.tagIDs)),
		tagNames:    make([]string, len(s.tagNames), cap(s.tagNames)),
	}
	for k, v := range s.tagIDs {
		n.tagIDs[k] = v
	}
	copy(n.tagNames, s.tagNames)

	var rl3 *cache.Cache
	var rcores []*Core
	if recycle != nil {
		rl3 = recycle.l3
		rcores = recycle.cores
	}
	n.l3 = s.l3.CloneInto(rl3)
	n.cores = make([]*Core, len(s.cores))
	for i, c := range s.cores {
		var r1, r2 *cache.Cache
		if i < len(rcores) {
			r1, r2 = rcores[i].L1, rcores[i].L2
		}
		n.cores[i] = &Core{ID: c.ID, L1: c.L1.CloneInto(r1), L2: c.L2.CloneInto(r2), PF: c.PF.Clone()}
	}

	pmDevs := make([]imc.Device, len(s.pmDIMMs))
	for _, d := range s.pmDIMMs {
		n.pmDIMMs = append(n.pmDIMMs, d.Clone())
	}
	for i, d := range n.pmDIMMs {
		pmDevs[i] = d
	}
	n.pmc = s.pmc.Clone(pmDevs...)
	n.dramDev = s.dramDev.Clone()
	n.dramc = s.dramc.Clone(n.dramDev)
	return n
}

// captureThread snapshots a finished thread's carry state.
func captureThread(t *Thread) threadState {
	ts := threadState{
		name:        t.name,
		coreID:      t.core.ID,
		remote:      t.remote,
		id:          t.id,
		now:         t.now,
		loadBarrier: t.loadBarrier,
		pfFree:      t.pfFree,
		flushHead:   t.flushHead,
		curTag:      t.curTag,
		lastTagName: t.lastTagName,
		lastTagID:   t.lastTagID,
		ops:         t.ops,
		tenantName:  t.tenantName,
	}
	ts.pending = cloneCycles(t.pending)
	ts.lazyFlushed = cloneAddrs(t.lazyFlushed)
	ts.flushRing = cloneCycles(t.flushRing)
	ts.tagCycles = cloneCycles(t.tagCycles)
	return ts
}

// revive rebuilds a live thread on system s from captured carry state,
// rebinding every cached pointer (core caches, CPU profile, demand
// counters) to s's own components.
func (ts *threadState) revive(s *System) *Thread {
	core := s.cores[ts.coreID]
	t := &Thread{
		sys:         s,
		id:          ts.id,
		name:        ts.name,
		core:        core,
		remote:      ts.remote,
		now:         ts.now,
		loadBarrier: ts.loadBarrier,
		pfFree:      ts.pfFree,
		flushHead:   ts.flushHead,
		curTag:      ts.curTag,
		lastTagName: ts.lastTagName,
		lastTagID:   ts.lastTagID,
		ops:         ts.ops,
		tenantName:  ts.tenantName,
		cpuProf:     &s.cfg.CPU,
		l1:          core.L1,
		l1Hit:       core.L1.HitCycles(),
		pmDemand:    &s.pmDemand,
		dramDemand:  &s.dramDemand,
		pfFloor:     s.cfg.PM.SeqReadFloorCycles,
	}
	t.pending = cloneCycles(ts.pending)
	t.lazyFlushed = cloneAddrs(ts.lazyFlushed)
	t.flushRing = cloneCycles(ts.flushRing)
	t.tagCycles = cloneCycles(ts.tagCycles)
	return t
}

func cloneCycles(s []sim.Cycles) []sim.Cycles {
	if s == nil {
		return nil
	}
	n := make([]sim.Cycles, len(s), cap(s))
	copy(n, s)
	return n
}

func cloneAddrs(s []mem.Addr) []mem.Addr {
	if s == nil {
		return nil
	}
	n := make([]mem.Addr, len(s), cap(s))
	copy(n, s)
	return n
}
