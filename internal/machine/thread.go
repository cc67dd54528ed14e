package machine

import (
	"optanesim/internal/cache"
	"optanesim/internal/mem"
	"optanesim/internal/sim"
	"optanesim/internal/telemetry"
	"optanesim/internal/trace"
)

// Thread is one simulated hardware thread. Workloads drive it
// imperatively (Load, Store, NTStore, CLWB, fences, ...); each operation
// advances the thread's private clock through the shared memory system.
// Threads run as coroutines under the system's lookahead-window
// scheduler (see sched.go): a thread holding the baton executes inline
// until its clock crosses the grant horizon, then passes the baton to
// whichever thread is furthest behind in simulated time, so
// shared-resource contention is resolved in exact time order.
type Thread struct {
	sys    *System
	id     int
	name   string
	core   *Core
	remote bool

	now         sim.Cycles
	loadBarrier sim.Cycles

	// pending holds WPQ acceptance times of flushes/nt-stores issued
	// since the last fence.
	pending []sim.Cycles
	// lazyFlushed holds lines clwb'd on G1 whose invalidation is still
	// pending; mfence forces it (sfence does not order loads and leaves
	// the delayed invalidation to expire on its own).
	lazyFlushed []mem.Addr
	// flushRing bounds flush/nt-store runahead to MaxOutstandingFlushes.
	flushRing []sim.Cycles
	flushHead int

	ops uint64

	// Scheduling. horizon is the lookahead grant installed by
	// System.grant: the thread executes inline while now < horizon
	// (horizonNever for a solo run or the last live thread). htShared
	// snapshots core.live > 1 at Run start (core bindings are fixed for
	// the whole Run), sparing feCost the core deref per op.
	horizon  sim.Cycles
	htShared bool
	resume   chan struct{}
	fn       func(*Thread)

	// levels is the cache hierarchy this thread sees, nearest first: its
	// core's L1 and L2, then the shared L3. Every walk over the
	// hierarchy (demand reads, fills and write-backs, flushes, probes)
	// runs over this list.
	levels [3]*cache.Cache

	// cpuProf caches &sys.cfg.CPU: the hot paths read several profile
	// fields per op and skip the two-level deref. l1Hit, pmDemand and
	// dramDemand flatten the other per-op pointer chains the same way.
	cpuProf    *CPUProfile
	l1Hit      sim.Cycles
	pmDemand   *trace.Counters
	dramDemand *trace.Counters

	// pfFloor caches the PM profile's SeqReadFloorCycles; pfFree is the
	// earliest allowed completion of the thread's next dependent load
	// served from a prefetched line (the media-port occupancy floor —
	// see optane.Profile.SeqReadFloorCycles). Zero floor disables pacing.
	pfFloor sim.Cycles
	pfFree  sim.Cycles

	// rec/tel mirror the system's telemetry attachment (wired at Run
	// start): rec drives the per-op sampler tick, tel is the machine
	// source probe handed to workload helpers (see Telemetry). Both are
	// nil with telemetry off.
	rec *telemetry.Recorder
	tel *telemetry.Probe

	// attr is the recorder's cycle-attribution scratchpad (nil unless
	// breakdown is on), shared by every component of the system; tenant
	// is this thread's interned tenant id on it, restored at each baton
	// handoff (threads interleave only at op boundaries, so a single
	// shared scratchpad is race-free). tenantName keeps the SetTenant
	// label across Runs so re-wiring against a fresh recorder re-interns
	// it.
	attr       *telemetry.OpAttr
	tenant     int
	tenantName string
}

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// ID returns the thread's registration index.
func (t *Thread) ID() int { return t.id }

// Now returns the thread's current simulated time.
func (t *Thread) Now() sim.Cycles { return t.now }

// Ops returns the number of operations executed.
func (t *Thread) Ops() uint64 { return t.ops }

// System returns the owning system.
func (t *Thread) System() *System { return t.sys }

// Telemetry returns the machine-layer event probe, or nil when telemetry
// is off — workload helpers (e.g. the §4.3 block-access paths) emit
// their own decision points through it.
func (t *Thread) Telemetry() *telemetry.Probe { return t.tel }

// SetTenant labels the thread's subsequent attribution samples with a
// tenant (per-tag accounting for e.g. noisy-neighbor experiments: each
// tenant gets its own breakdown histograms). The empty string selects
// the default tenant. With breakdown off the label is retained and
// takes effect when a breakdown-enabled recorder is attached.
func (t *Thread) SetTenant(name string) {
	t.tenantName = name
	if t.attr != nil {
		t.tenant = t.attr.Tenant(name)
		t.attr.SetCurrentTenant(t.tenant)
	}
}

// Tenant returns the thread's tenant label.
func (t *Thread) Tenant() string { return t.tenantName }

// attrResumed restores the thread's tenant on the shared attribution
// scratchpad after a baton handoff — the only point where the running
// simulated thread (and hence the tenant) changes.
func (t *Thread) attrResumed() {
	if t.attr != nil {
		t.attr.SetCurrentTenant(t.tenant)
	}
}

// main is the coroutine body. On finish the baton passes to the
// suspended minimum-time thread; the last thread out closes done.
func (t *Thread) main() {
	<-t.resume
	t.attrResumed()
	t.fn(t)
	t.sys.live--
	if next := t.sys.sched.pop(); next != nil {
		t.sys.grant(next)
		next.resume <- struct{}{}
	} else {
		close(t.sys.done)
	}
}

// advance moves the thread's clock to at, never backwards. It is the
// only place the clock moves.
func (t *Thread) advance(at sim.Cycles) {
	t.now = max(t.now, at)
}

// feCost scales a front-end cost for hyperthread sharing when a sibling
// thread is live on the same core.
func (t *Thread) feCost(c sim.Cycles) sim.Cycles {
	if t.htShared {
		return c + c*sim.Cycles(t.cpuProf.HTSharePenaltyPct)/100
	}
	return c
}

// demand returns the demand-traffic counter set for addr's region.
func (t *Thread) demand(addr mem.Addr) *trace.Counters {
	if addr.IsPM() {
		return t.pmDemand
	}
	return t.dramDemand
}

// remoteReadExtra is the NUMA penalty for this thread reading addr.
func (t *Thread) remoteReadExtra(addr mem.Addr) sim.Cycles {
	if !t.remote {
		return 0
	}
	if addr.IsPM() {
		return t.cpuProf.RemotePMReadExtra
	}
	return t.cpuProf.RemoteDRAMReadExtra
}

// Load performs an ordinary cacheable load of the cacheline containing
// addr. The load may issue ahead of retirement (out of order) unless an
// mfence has ordered it.
func (t *Thread) Load(addr mem.Addr) {
	t.load(addr, true)
}

// LoadDep performs a load whose address depends on in-flight data (e.g.
// pointer chasing): it cannot issue before the thread's current time.
func (t *Thread) LoadDep(addr mem.Addr) {
	t.load(addr, false)
}

func (t *Thread) load(addr mem.Addr, ooo bool) {
	t.schedule()
	l1 := t.levels[0]
	l := l1.PredictLine(addr.Line())

	start := t.now
	cpu := t.cpuProf
	t.demand(addr).DemandReadBytes += mem.CachelineSize

	eff := t.now
	if ooo {
		eff -= cpu.OOOWindow
	}
	// loadBarrier is never negative, so this clamp also floors eff at 0.
	if eff < t.loadBarrier {
		eff = t.loadBarrier
	}
	// Plain predicted L1 hit (no pending flush, no prefetch
	// confirmation): commit the hit and complete here, skipping the
	// generic hierarchy walk. Any other case — predictor miss, flushed or
	// prefetched line — takes the full readPath, whose Lookup performs
	// the identical accounting.
	var done sim.Cycles
	if l != nil && !l.Flushed && !l.Prefetched {
		l1.Touch(l)
		done = sim.Max(eff, l.ReadyAt) + t.l1Hit
		if a := t.attr; a != nil {
			a.Add(telemetry.CompL1Hit, done-eff)
		}
	} else {
		done = t.readPath(eff, addr, true, !ooo)
	}
	t.advance(sim.Max(t.now+t.feCost(cpu.LoadIssueCycles), done))
	if a := t.attr; a != nil {
		a.Add(telemetry.CompIssue, t.feCost(cpu.LoadIssueCycles))
		a.FinishOp(telemetry.ClassLoad, t.now-start)
	}
	t.sampleTick()
}

// LoadParallel performs several independent loads that issue together
// (e.g. a segment's metadata and its target bucket, whose addresses are
// both known once the directory entry arrives): the thread advances to
// the latest completion rather than their sum.
func (t *Thread) LoadParallel(addrs ...mem.Addr) {
	t.schedule()
	start := t.now
	cpu := t.cpuProf
	eff := t.now - cpu.OOOWindow
	// loadBarrier is never negative, so this clamp also floors eff at 0.
	if eff < t.loadBarrier {
		eff = t.loadBarrier
	}
	var done sim.Cycles
	for _, addr := range addrs {
		t.demand(addr).DemandReadBytes += mem.CachelineSize
		d := t.readPath(eff, addr, true, false)
		if d > done {
			done = d
		}
	}
	t.advance(sim.Max(t.now+t.feCost(cpu.LoadIssueCycles)*sim.Cycles(len(addrs)), done))
	if a := t.attr; a != nil {
		a.Add(telemetry.CompIssue, t.feCost(cpu.LoadIssueCycles)*sim.Cycles(len(addrs)))
		a.FinishOp(telemetry.ClassLoad, t.now-start)
	}
}

// readPath walks the hierarchy for a demand load beginning at start and
// returns the data-available time. The first level holding a readable
// copy serves the load and fills every level above it; a load no level
// serves goes to memory and fills them all. The prefetchers see every
// load that misses L1, and an L1 hit only when it confirms a prefetched
// line. dep marks a dependent (pointer-chase style) load, which is
// subject to the PM media-port occupancy floor when it is served from a
// prefetched line.
func (t *Thread) readPath(start sim.Cycles, addr mem.Addr, demand, dep bool) sim.Cycles {
	la := addr.Line()
	var done sim.Cycles
	confirmed := false
	i := 0
	for ; i < len(t.levels); i++ {
		c := t.levels[i]
		l := c.Lookup(la)
		if l == nil || t.flushExpired(c, l, la, start) {
			continue
		}
		confirmed = l.Prefetched
		l.Prefetched = false
		done = sim.Max(start, l.ReadyAt) + c.HitCycles()
		if a := t.attr; a != nil {
			// CompL1Hit, CompL2Hit and CompL3Hit are consecutive.
			a.Add(telemetry.CompL1Hit+telemetry.Comp(i), done-start)
		}
		if confirmed && dep && t.pfFloor > 0 && addr.IsPM() {
			done = t.paceSeqRead(done)
		}
		break
	}
	if i == len(t.levels) {
		done = t.memRead(start, addr, demand)
	}
	for j := i - 1; j >= 0; j-- {
		t.fillLevel(j, la, false, false, done)
	}
	if i > 0 || confirmed {
		t.issuePrefetches(addr, i > 0, confirmed, done)
	}
	return done
}

// memRead reads addr's line from memory for a request issued at at,
// after it has missed every cache level: the request pays the L3
// lookup before it leaves for the controller, and a thread on the
// remote socket pays the NUMA surcharge on the way back.
func (t *Thread) memRead(at sim.Cycles, addr mem.Addr, demand bool) sim.Cycles {
	l3 := t.levels[2].HitCycles()
	numa := t.remoteReadExtra(addr)
	if a := t.attr; a != nil {
		a.Add(telemetry.CompL3Hit, l3)
		a.Add(telemetry.CompNUMA, numa)
	}
	return t.sys.controller(addr).Read(at+l3, addr, demand) + numa
}

// paceSeqRead applies the PM media-port occupancy floor to a dependent
// load served from a prefetched line: consecutive such loads cannot
// complete closer together than pfFloor cycles, because each prefetch
// occupied a media read port for that long (§3.6's sequential pointer
// chase). The wait is charged to the media component.
func (t *Thread) paceSeqRead(done sim.Cycles) sim.Cycles {
	if t.pfFree > done {
		if a := t.attr; a != nil {
			a.Add(telemetry.CompMedia, t.pfFree-done)
		}
		done = t.pfFree
	}
	t.pfFree = done + t.pfFloor
	return done
}

// flushExpired applies G1's lazy clwb invalidation: a line with a
// pending flush becomes unreadable once the invalidation delay elapses.
// l is c's frame for the line at la.
func (t *Thread) flushExpired(c *cache.Cache, l *cache.Line, la mem.Addr, at sim.Cycles) bool {
	if !l.Flushed {
		return false
	}
	if int(l.FlushedBy) == t.id && t.ops-l.FlushedSeq <= t.cpuProf.InvalidateDelayOps {
		return false
	}
	// The delayed invalidation lands now; a line re-dirtied since the
	// clwb is written back on its way out.
	if l.Dirty {
		t.sys.controller(la).Write(at, la)
	}
	c.Invalidate(la)
	return true
}

// fillLevel installs a line at level i, cascading dirty victims toward
// memory.
func (t *Thread) fillLevel(i int, la mem.Addr, dirty, prefetched bool, readyAt sim.Cycles) {
	victim, evicted := t.levels[i].Insert(la, dirty, prefetched, readyAt)
	if evicted && victim.Dirty {
		t.spillVictim(i+1, victim.Addr, readyAt)
	}
}

// spillVictim writes back a dirty victim from the level above i: it
// re-dirties a copy already at level i or is installed there dirty,
// and below the L3 it goes to memory asynchronously.
func (t *Thread) spillVictim(i int, la mem.Addr, at sim.Cycles) {
	if i == len(t.levels) {
		t.sys.controller(la).Write(at, la)
		return
	}
	if l := t.levels[i].Peek(la); l != nil {
		l.Dirty = true
		return
	}
	t.fillLevel(i, la, true, false, at)
}

// cachedAt returns the nearest level holding line la, or len(t.levels)
// when none does. It probes without touching LRU state or statistics.
func (t *Thread) cachedAt(la mem.Addr) int {
	for i, c := range t.levels {
		if c.Peek(la) != nil {
			return i
		}
	}
	return len(t.levels)
}

// issuePrefetches runs the core's prefetch engine and issues the
// resulting asynchronous memory reads, filling L2/L3.
func (t *Thread) issuePrefetches(addr mem.Addr, miss, confirmed bool, at sim.Cycles) {
	cands := t.core.PF.OnAccess(addr, miss, confirmed)
	for _, pa := range cands {
		la := pa.Line()
		if t.cachedAt(la) < len(t.levels) {
			continue
		}
		done := t.sys.controller(la).Read(at, la, false) + t.remoteReadExtra(la)
		t.fillLevel(2, la, false, true, done)
		t.fillLevel(1, la, false, true, done)
	}
}

// Store performs an ordinary cacheable store of the full cacheline
// containing addr.
//
// Modeling note: stores allocate the line in modified state without a
// memory read (full-line-store/ItoM semantics). Workloads that logically
// read-modify-write issue an explicit Load first, so read costs are
// always visible as loads.
func (t *Thread) Store(addr mem.Addr) {
	t.schedule()
	la := addr.Line()
	l1 := t.levels[0]
	l := l1.PredictLine(la)

	start := t.now
	cpu := t.cpuProf
	t.demand(addr).DemandWriteBytes += mem.CachelineSize
	if l != nil && !l.Flushed {
		// Predicted unflushed L1 hit: commit and re-dirty in place.
		l1.Touch(l)
		l.Dirty = true
		l.Prefetched = false
		t.advance(t.now + t.feCost(cpu.StoreCycles))
	} else if l := l1.Lookup(la); l != nil && (!l.Flushed || !t.flushExpired(l1, l, la, t.now)) {
		// A pending clwb invalidation is NOT cancelled by the store: the
		// line is re-dirtied but still gets evicted when the
		// invalidation lands, which is what makes repeated
		// store+clwb+fence loops on one cacheline suffer RAP (§4.2).
		l.Dirty = true
		l.Prefetched = false
		t.advance(t.now + t.feCost(cpu.StoreCycles))
	} else {
		t.fillLevel(0, la, true, false, t.now)
		t.advance(t.now + t.feCost(cpu.StoreCycles+2))
	}
	if a := t.attr; a != nil {
		a.Add(telemetry.CompIssue, t.now-start)
		a.FinishOp(telemetry.ClassStore, t.now-start)
	}
	t.sampleTick()
	if addr.IsPM() {
		t.emitPersist(telemetry.KindPersistStore, la)
	}
}

// post sends a flush or nt-store of line la to the WPQ. It issues issue
// cycles from now, or once the post MaxOutstandingFlushes back has been
// accepted if that is later, and the core is busy for cost cycles. The
// thread does not wait for acceptance: that is the next fence's job.
//
// Like every machine-layer write path (flushExpired, spillVictim), only
// the acceptance time is consumed: the landing time is
// controller-internal.
func (t *Thread) post(la mem.Addr, issue, cost sim.Cycles) {
	depth := t.cpuProf.MaxOutstandingFlushes
	issueAt := t.now + issue
	if len(t.flushRing) == depth {
		issueAt = sim.Max(issueAt, t.flushRing[t.flushHead])
	}
	if a := t.attr; a != nil {
		a.Add(telemetry.CompIssue, cost)
		a.Add(telemetry.CompFlushPipe, issueAt-(t.now+cost))
	}
	accept, _ := t.sys.controller(la).Write(issueAt, la)
	if t.remote {
		accept += t.cpuProf.RemoteWriteExtra
	}
	if len(t.flushRing) < depth {
		t.flushRing = append(t.flushRing, accept)
	} else {
		t.flushRing[t.flushHead] = accept
		t.flushHead = (t.flushHead + 1) % depth
	}
	t.pending = append(t.pending, accept)
	// The core stalls when its flush pipeline is saturated.
	t.advance(sim.Max(t.now+cost, issueAt))
}

// NTStore performs a non-temporal store of the cacheline containing
// addr: caches are bypassed (existing copies are invalidated) and the
// write is posted to the WPQ. The thread does not wait for acceptance —
// that is the following fence's job — but stalls if too many flushes are
// outstanding.
func (t *Thread) NTStore(addr mem.Addr) {
	t.schedule()
	start := t.now
	t.demand(addr).DemandWriteBytes += mem.CachelineSize
	la := addr.Line()
	for _, c := range t.levels {
		c.Invalidate(la)
	}
	issue := t.feCost(t.cpuProf.NTStoreIssueCycles)
	t.post(la, issue, issue)
	if a := t.attr; a != nil {
		a.FinishOp(telemetry.ClassNTStore, t.now-start)
	}
	t.sampleTick()
}

// CLWB writes the cacheline containing addr back to memory if it is
// dirty. On G1 the line is also invalidated (after the pipeline delay);
// on G2 it remains cached in clean state.
func (t *Thread) CLWB(addr mem.Addr) {
	t.flush(addr, !t.cpuProf.CLWBInvalidates, true)
}

// CLFlushOpt writes back (if dirty) and invalidates the cacheline
// containing addr on both generations.
func (t *Thread) CLFlushOpt(addr mem.Addr) {
	t.flush(addr, false, false)
}

// flush implements clwb/clflushopt. keepCached selects G2 clwb
// semantics (write back without invalidating); lazy selects G1 clwb's
// delayed invalidation (§3.5's bypass window), while clflushopt
// invalidates immediately.
func (t *Thread) flush(addr mem.Addr, keepCached, lazy bool) {
	t.schedule()
	start := t.now
	cpu := t.cpuProf
	la := addr.Line()

	// Under eADR the caches are persistent: flushes are no-ops beyond
	// their issue slot (§6).
	if cpu.EADR {
		t.advance(t.now + t.feCost(cpu.FlushIssueCycles)/2)
		if a := t.attr; a != nil {
			a.Add(telemetry.CompIssue, t.now-start)
			a.FinishOp(telemetry.ClassFlush, t.now-start)
		}
		t.sampleTick()
		return
	}

	dirty := false
	l1 := t.levels[0]
	if l := l1.Peek(la); l != nil {
		dirty = l.Dirty
		switch {
		case keepCached:
			l.Dirty = false
		case lazy && !l.Flushed:
			// Lazy invalidation: the line stays readable by this
			// thread for InvalidateDelayOps more ops (§3.5's bypass
			// window) and is then evicted on access. A second clwb on
			// an already-flushed line keeps the original schedule.
			l.Dirty = false
			l.Flushed = true
			l.FlushedSeq = t.ops
			l.FlushedBy = int32(t.id)
			t.lazyFlushed = append(t.lazyFlushed, la)
		case lazy:
			l.Dirty = false
		default:
			l1.Invalidate(la)
		}
	}
	for _, c := range t.levels[1:] {
		if l := c.Peek(la); l != nil {
			dirty = dirty || l.Dirty
			if keepCached {
				l.Dirty = false
			} else {
				c.Invalidate(la)
			}
		}
	}

	cost := t.feCost(cpu.FlushIssueCycles)
	if dirty {
		if keepCached {
			cost += cpu.CLWBKeepExtra
		}
		t.post(la, t.feCost(cpu.FlushIssueCycles), cost)
	} else {
		if a := t.attr; a != nil {
			a.Add(telemetry.CompIssue, cost)
		}
		t.advance(t.now + cost)
	}
	if a := t.attr; a != nil {
		a.FinishOp(telemetry.ClassFlush, t.now-start)
	}
	t.sampleTick()
}

// SFence completes when every flush/nt-store issued since the last fence
// has been accepted into the ADR domain (the WPQ). Loads are not ordered.
func (t *Thread) SFence() { t.fence(false) }

// MFence is SFence plus load ordering: subsequent loads may not issue
// before the fence completes, and pending clwb invalidations take
// effect — a following load of a flushed line must go to memory and
// stall on the in-flight persist (§3.5).
func (t *Thread) MFence() { t.fence(true) }

// fence is SFence, or MFence when ordered.
func (t *Thread) fence(ordered bool) {
	t.schedule()
	start := t.now
	base := t.now + t.feCost(t.cpuProf.FenceBaseCycles)
	at := base
	for _, a := range t.pending {
		if a > at {
			at = a
		}
	}
	t.pending = t.pending[:0]
	if a := t.attr; a != nil {
		a.Add(telemetry.CompIssue, base-t.now)
		a.Add(telemetry.CompFenceDrain, at-base)
	}
	if at > base && t.tel != nil {
		t.tel.Emit(at, telemetry.KindFenceDrain, 0, uint64(at-base))
	}
	t.advance(at)
	if ordered {
		t.loadBarrier = t.now
		l1 := t.levels[0]
		for _, la := range t.lazyFlushed {
			if l := l1.Peek(la); l != nil && l.Flushed {
				l1.Invalidate(la)
			}
		}
	}
	t.lazyFlushed = t.lazyFlushed[:0]
	if a := t.attr; a != nil {
		a.FinishOp(telemetry.ClassFence, t.now-start)
	}
	t.sampleTick()
	t.emitPersist(telemetry.KindPersistFence, 0)
}

// emitPersist records a persistence event — a PM store, or a fence with
// line 0 — on the telemetry stream. WPQ acceptances are not emitted
// here: the PM controller's own probe records them as wpq-enq events.
func (t *Thread) emitPersist(k telemetry.Kind, line mem.Addr) {
	if t.tel != nil {
		t.tel.Emit(t.now, k, line, uint64(t.id))
	}
}

// sampleTick gives the telemetry sampler a chance to snapshot its gauges
// after a load, store, flush or fence: one pointer test when telemetry
// is off, one comparison when the sampling period has not elapsed.
func (t *Thread) sampleTick() {
	if t.rec != nil {
		t.rec.MaybeSample(t.now)
	}
}

// Compute models n cycles of computation with no memory access.
// Hyperthread sharing inflates it like other front-end work.
func (t *Thread) Compute(n sim.Cycles) {
	t.schedule()
	t.advance(t.now + t.feCost(n))
	if a := t.attr; a != nil {
		a.Add(telemetry.CompCompute, t.feCost(n))
		a.FinishOp(telemetry.ClassCompute, t.feCost(n))
	}
}

// AVXCopy copies the XPLine at src (PM) to a cacheline-aligned DRAM
// staging buffer at dst using streaming SIMD loads: the four source
// cachelines are read without engaging the prefetchers or polluting the
// source's cache footprint, and the destination lines are written
// normally (§4.3's optimization).
func (t *Thread) AVXCopy(src, dst mem.Addr) {
	t.schedule()
	start := t.now
	cpu := t.cpuProf
	srcLine := src.XPLine()
	t.demand(src).DemandReadBytes += mem.XPLineSize

	// The four 512-bit load/store pairs form a dependent chain (each
	// SIMD register is stored to the staging buffer before the next
	// load), so the line reads serialize — the §4.3 copy overhead.
	done := t.now
	attr := t.attr
	for i := 0; i < mem.LinesPerXPLine; i++ {
		la := srcLine + mem.Addr(i*mem.CachelineSize)
		// Serve from caches when present, without prefetch triggers.
		if lv := t.cachedAt(la); lv < len(t.levels) {
			hit := t.levels[lv].HitCycles()
			done += hit
			if attr != nil {
				attr.Add(telemetry.CompL1Hit+telemetry.Comp(lv), hit)
			}
		} else {
			done = t.memRead(done, la, true)
		}
	}
	// Write the four destination cachelines (DRAM, cacheable).
	dstLine := dst.Line()
	for i := 0; i < mem.LinesPerXPLine; i++ {
		t.demand(dst).DemandWriteBytes += mem.CachelineSize
		t.fillLevel(0, dstLine+mem.Addr(i*mem.CachelineSize), true, false, done)
	}
	t.advance(done + 4*cpu.StoreCycles)
	if attr != nil {
		attr.Add(telemetry.CompIssue, 4*cpu.StoreCycles)
		attr.FinishOp(telemetry.ClassAVXCopy, t.now-start)
	}
}
