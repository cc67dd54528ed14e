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

	// Attribution: cycles accumulate into the current tag's bucket.
	// Tags are interned per system (see System.internTag); tagCycles is
	// indexed by tag ID, with ID 0 (the empty tag) never accumulated.
	tagCycles []sim.Cycles
	curTag    int
	// lastTagName/lastTagID memoize the most recent SetTag string so
	// repeated tag switches between the same constants skip the intern
	// map.
	lastTagName string
	lastTagID   int
	ops         uint64

	// Scheduling. horizon is the lookahead grant installed by
	// System.grant: the thread executes inline while now < horizon
	// (horizonNever for a solo run or the last live thread). htShared
	// snapshots core.live > 1 at Run start (core bindings are fixed for
	// the whole Run), sparing feCost the core deref per op.
	horizon  sim.Cycles
	htShared bool
	resume   chan struct{}
	fn       func(*Thread)

	// cpuProf caches &sys.cfg.CPU: the hot paths read several profile
	// fields per op and skip the two-level deref. l1, l1Hit, pmDemand and
	// dramDemand flatten the other per-op pointer chains the same way.
	cpuProf    *CPUProfile
	l1         *cache.Cache
	l1Hit      sim.Cycles
	pmDemand   *trace.Counters
	dramDemand *trace.Counters

	// pfFloor caches the PM profile's SeqReadFloorCycles; pfFree is the
	// earliest allowed completion of the thread's next dependent load
	// served from a prefetched line (the media-port occupancy floor —
	// see optane.Profile.SeqReadFloorCycles). Zero floor disables pacing.
	pfFloor sim.Cycles
	pfFree  sim.Cycles

	// traces, when non-nil, records recent operations (EnableTrace).
	traces *traceRing

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

// SetTag directs subsequent cycle accounting into the named bucket
// (Table 1's time breakdown). An empty tag disables attribution.
func (t *Thread) SetTag(tag string) {
	if tag == "" {
		t.curTag = 0
		return
	}
	if tag != t.lastTagName {
		t.lastTagName = tag
		t.lastTagID = t.sys.internTag(tag)
	}
	id := t.lastTagID
	for len(t.tagCycles) <= id {
		t.tagCycles = append(t.tagCycles, 0)
	}
	t.curTag = id
}

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

// TagCycles returns the cycles attributed to tag so far.
func (t *Thread) TagCycles(tag string) sim.Cycles {
	id, ok := t.sys.tagIDs[tag]
	if !ok || id >= len(t.tagCycles) {
		return 0
	}
	return t.tagCycles[id]
}

// Tags returns the attribution buckets that accumulated cycles. The map
// is a fresh copy: mutating it cannot corrupt the thread's accounting.
func (t *Thread) Tags() map[string]sim.Cycles {
	out := make(map[string]sim.Cycles, len(t.tagCycles))
	for id, c := range t.tagCycles {
		if c != 0 {
			out[t.sys.tagNames[id]] = c
		}
	}
	return out
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

// advance moves the thread's clock to at (never backwards), charging the
// elapsed cycles to the current tag.
func (t *Thread) advance(at sim.Cycles) {
	if at <= t.now {
		return
	}
	if t.curTag != 0 {
		t.tagCycles[t.curTag] += at - t.now
	}
	t.now = at
}

// cpu returns the CPU profile.
func (t *Thread) cpu() *CPUProfile { return t.cpuProf }

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
		return t.cpu().RemotePMReadExtra
	}
	return t.cpu().RemoteDRAMReadExtra
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
	l := t.l1.PredictLine(addr.Line())

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
		t.l1.Touch(l)
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
	t.record(mem.OpLoad, addr, start)
}

// LoadParallel performs several independent loads that issue together
// (e.g. a segment's metadata and its target bucket, whose addresses are
// both known once the directory entry arrives): the thread advances to
// the latest completion rather than their sum.
func (t *Thread) LoadParallel(addrs ...mem.Addr) {
	t.schedule()
	start := t.now
	cpu := t.cpu()
	eff := t.now - cpu.OOOWindow
	// loadBarrier is never negative, so this clamp also floors eff at 0.
	if eff < t.loadBarrier {
		eff = t.loadBarrier
	}
	var done sim.Cycles
	for _, addr := range addrs {
		t.sys.demand(addr).DemandReadBytes += mem.CachelineSize
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
// returns the data-available time. It fills caches and triggers the
// prefetchers. dep marks a dependent (pointer-chase style) load, which
// is subject to the PM media-port occupancy floor when it is served from
// a prefetched line.
func (t *Thread) readPath(start sim.Cycles, addr mem.Addr, demand, dep bool) sim.Cycles {
	if l := t.core.L1.Lookup(addr.Line()); l != nil {
		return t.readPathL1(start, addr, l, demand, dep)
	}
	return t.readPathMiss(start, addr, demand, dep)
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

// readPathL1 completes a demand read that found line l in L1: a hit
// unless the line's pending flush invalidation has expired, in which
// case the walk resumes at L2.
func (t *Thread) readPathL1(start sim.Cycles, addr mem.Addr, l *cache.Line, demand, dep bool) sim.Cycles {
	if t.flushExpired(t.core.L1, l, start) {
		return t.readPathMiss(start, addr, demand, dep)
	}
	confirmed := l.Prefetched
	l.Prefetched = false
	done := sim.Max(start, l.ReadyAt) + t.core.L1.HitCycles()
	if a := t.attr; a != nil {
		a.Add(telemetry.CompL1Hit, done-start)
	}
	if confirmed {
		if dep && t.pfFloor > 0 && addr.IsPM() {
			done = t.paceSeqRead(done)
		}
		t.issuePrefetches(addr, false, true, done)
	}
	return done
}

// readPathMiss walks the hierarchy below L1 for a demand read.
func (t *Thread) readPathMiss(start sim.Cycles, addr mem.Addr, demand, dep bool) sim.Cycles {
	la := addr.Line()

	// L2.
	if l := t.core.L2.Lookup(la); l != nil && !t.flushExpired(t.core.L2, l, start) {
		confirmed := l.Prefetched
		l.Prefetched = false
		done := sim.Max(start, l.ReadyAt) + t.core.L2.HitCycles()
		if a := t.attr; a != nil {
			a.Add(telemetry.CompL2Hit, done-start)
		}
		if confirmed && dep && t.pfFloor > 0 && addr.IsPM() {
			done = t.paceSeqRead(done)
		}
		t.fillLevel(t.core.L1, la, false, false, done)
		t.issuePrefetches(addr, true, confirmed, done)
		return done
	}
	// Shared L3.
	if l := t.sys.l3.Lookup(la); l != nil && !t.flushExpired(t.sys.l3, l, start) {
		confirmed := l.Prefetched
		l.Prefetched = false
		done := sim.Max(start, l.ReadyAt) + t.sys.l3.HitCycles()
		if a := t.attr; a != nil {
			a.Add(telemetry.CompL3Hit, done-start)
		}
		if confirmed && dep && t.pfFloor > 0 && addr.IsPM() {
			done = t.paceSeqRead(done)
		}
		t.fillLevel(t.core.L2, la, false, false, done)
		t.fillLevel(t.core.L1, la, false, false, done)
		t.issuePrefetches(addr, true, confirmed, done)
		return done
	}
	// Memory.
	mc := t.sys.controller(addr)
	if a := t.attr; a != nil {
		a.Add(telemetry.CompL3Hit, t.sys.l3.HitCycles())
		a.Add(telemetry.CompNUMA, t.remoteReadExtra(addr))
	}
	memDone := mc.Read(start+t.sys.l3.HitCycles(), addr, demand)
	memDone += t.remoteReadExtra(addr)
	t.fillLevel(t.sys.l3, la, false, false, memDone)
	t.fillLevel(t.core.L2, la, false, false, memDone)
	t.fillLevel(t.core.L1, la, false, false, memDone)
	t.issuePrefetches(addr, true, false, memDone)
	return memDone
}

// flushExpired applies G1's lazy clwb invalidation: a line with a
// pending flush becomes unreadable once the invalidation delay elapses.
func (t *Thread) flushExpired(c *cache.Cache, l *cache.Line, at sim.Cycles) bool {
	if !l.Flushed {
		return false
	}
	if l.FlushedBy == t.id && t.ops-l.FlushedSeq <= t.cpu().InvalidateDelayOps {
		return false
	}
	// The delayed invalidation lands now; a line re-dirtied since the
	// clwb is written back on its way out.
	if l.Dirty {
		t.sys.controller(l.Addr()).Write(at, l.Addr())
	}
	c.Invalidate(l.Addr())
	return true
}

// fillLevel installs a line, cascading dirty victims toward memory.
func (t *Thread) fillLevel(c *cache.Cache, la mem.Addr, dirty, prefetched bool, readyAt sim.Cycles) {
	victim, evicted := c.Insert(la, dirty, prefetched, readyAt)
	if !evicted || !victim.Dirty {
		return
	}
	t.spillVictim(c, victim, readyAt)
}

// spillVictim pushes a dirty victim down one level, or to memory from L3.
func (t *Thread) spillVictim(from *cache.Cache, v cache.Victim, at sim.Cycles) {
	var lower *cache.Cache
	switch from {
	case t.core.L1:
		lower = t.core.L2
	case t.core.L2:
		lower = t.sys.l3
	default:
		// L3 victim: write back to memory asynchronously.
		t.sys.controller(v.Addr).Write(at, v.Addr)
		return
	}
	if l := lower.Peek(v.Addr); l != nil {
		l.Dirty = true
		return
	}
	victim, evicted := lower.Insert(v.Addr, true, false, at)
	if evicted && victim.Dirty {
		t.spillVictim(lower, victim, at)
	}
}

// issuePrefetches runs the core's prefetch engine and issues the
// resulting asynchronous memory reads, filling L2/L3.
func (t *Thread) issuePrefetches(addr mem.Addr, miss, confirmed bool, at sim.Cycles) {
	cands := t.core.PF.OnAccess(addr, miss, confirmed)
	for _, pa := range cands {
		la := pa.Line()
		if t.core.L1.Peek(la) != nil || t.core.L2.Peek(la) != nil || t.sys.l3.Peek(la) != nil {
			continue
		}
		mc := t.sys.controller(la)
		done := mc.Read(at, la, false)
		done += t.remoteReadExtra(la)
		t.fillLevel(t.sys.l3, la, false, true, done)
		t.fillLevel(t.core.L2, la, false, true, done)
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
	l := t.l1.PredictLine(la)

	start := t.now
	cpu := t.cpuProf
	t.demand(addr).DemandWriteBytes += mem.CachelineSize
	if l != nil && !l.Flushed {
		// Predicted unflushed L1 hit: commit and re-dirty in place.
		t.l1.Touch(l)
		l.Dirty = true
		l.Prefetched = false
		t.advance(t.now + t.feCost(cpu.StoreCycles))
	} else if l := t.core.L1.Lookup(la); l != nil && (!l.Flushed || !t.flushExpired(t.core.L1, l, t.now)) {
		// A pending clwb invalidation is NOT cancelled by the store: the
		// line is re-dirtied but still gets evicted when the
		// invalidation lands, which is what makes repeated
		// store+clwb+fence loops on one cacheline suffer RAP (§4.2).
		l.Dirty = true
		l.Prefetched = false
		t.advance(t.now + t.feCost(cpu.StoreCycles))
	} else {
		t.fillLevel(t.core.L1, la, true, false, t.now)
		t.advance(t.now + t.feCost(cpu.StoreCycles+2))
	}
	if a := t.attr; a != nil {
		a.Add(telemetry.CompIssue, t.now-start)
		a.FinishOp(telemetry.ClassStore, t.now-start)
	}
	t.record(mem.OpStore, addr, start)
	if addr.IsPM() {
		t.emitPersist(telemetry.KindPersistStore, la)
	}
}

// flushFloor returns the earliest time a new flush/nt-store may issue,
// respecting the bounded number of outstanding flush operations.
func (t *Thread) flushFloor() sim.Cycles {
	depth := t.cpu().MaxOutstandingFlushes
	if depth <= 0 {
		depth = 8
	}
	if len(t.flushRing) < depth {
		return 0
	}
	return t.flushRing[t.flushHead]
}

// recordFlush tracks an issued flush/nt-store acceptance time.
func (t *Thread) recordFlush(accept sim.Cycles) {
	depth := t.cpu().MaxOutstandingFlushes
	if depth <= 0 {
		depth = 8
	}
	if len(t.flushRing) < depth {
		t.flushRing = append(t.flushRing, accept)
		return
	}
	t.flushRing[t.flushHead] = accept
	t.flushHead = (t.flushHead + 1) % depth
}

// NTStore performs a non-temporal store of the cacheline containing
// addr: caches are bypassed (existing copies are invalidated) and the
// write is posted to the WPQ. The thread does not wait for acceptance —
// that is the following fence's job — but stalls if too many flushes are
// outstanding.
//
// Like every machine-layer write path (flush, flushExpired,
// spillVictim), only the acceptance time is consumed: the landing time
// is controller-internal.
func (t *Thread) NTStore(addr mem.Addr) {
	t.schedule()
	start := t.now
	cpu := t.cpu()
	t.sys.demand(addr).DemandWriteBytes += mem.CachelineSize
	la := addr.Line()
	t.core.L1.Invalidate(la)
	t.core.L2.Invalidate(la)
	t.sys.l3.Invalidate(la)

	issueAt := sim.Max(t.now+t.feCost(cpu.NTStoreIssueCycles), t.flushFloor())
	if a := t.attr; a != nil {
		a.Add(telemetry.CompIssue, t.feCost(cpu.NTStoreIssueCycles))
		a.Add(telemetry.CompFlushPipe, issueAt-(t.now+t.feCost(cpu.NTStoreIssueCycles)))
	}
	accept, _ := t.sys.controller(la).Write(issueAt, la)
	if t.remote {
		accept += cpu.RemoteWriteExtra
	}
	t.recordFlush(accept)
	t.pending = append(t.pending, accept)
	t.advance(sim.Max(t.now+t.feCost(cpu.NTStoreIssueCycles), issueAt))
	if a := t.attr; a != nil {
		a.FinishOp(telemetry.ClassNTStore, t.now-start)
	}
	t.record(mem.OpNTStore, addr, start)
}

// CLWB writes the cacheline containing addr back to memory if it is
// dirty. On G1 the line is also invalidated (after the pipeline delay);
// on G2 it remains cached in clean state.
func (t *Thread) CLWB(addr mem.Addr) {
	t.flush(addr, !t.cpu().CLWBInvalidates, true)
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
	kind := mem.OpCLFlushOpt
	if lazy || keepCached {
		kind = mem.OpCLWB
	}
	cpu := t.cpu()
	la := addr.Line()

	// Under eADR the caches are persistent: flushes are no-ops beyond
	// their issue slot (§6).
	if cpu.EADR {
		t.advance(t.now + t.feCost(cpu.FlushIssueCycles)/2)
		if a := t.attr; a != nil {
			a.Add(telemetry.CompIssue, t.now-start)
			a.FinishOp(telemetry.ClassFlush, t.now-start)
		}
		t.record(kind, addr, start)
		return
	}

	dirty := false
	l := t.l1.PredictLine(la)
	if l == nil {
		l = t.l1.Peek(la)
	}
	if l != nil {
		dirty = dirty || l.Dirty
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
			l.FlushedBy = t.id
			t.lazyFlushed = append(t.lazyFlushed, la)
		case lazy && l.Flushed:
			l.Dirty = false
		default:
			t.core.L1.Invalidate(la)
		}
	}
	if l := t.core.L2.Peek(la); l != nil {
		dirty = dirty || l.Dirty
		if keepCached {
			l.Dirty = false
		} else {
			t.core.L2.Invalidate(la)
		}
	}
	if l := t.sys.l3.Peek(la); l != nil {
		dirty = dirty || l.Dirty
		if keepCached {
			l.Dirty = false
		} else {
			t.sys.l3.Invalidate(la)
		}
	}

	cost := t.feCost(cpu.FlushIssueCycles)
	if keepCached && dirty {
		cost += cpu.CLWBKeepExtra
	}
	if dirty {
		issueAt := sim.Max(t.now+t.feCost(cpu.FlushIssueCycles), t.flushFloor())
		if a := t.attr; a != nil {
			a.Add(telemetry.CompIssue, cost)
			a.Add(telemetry.CompFlushPipe, issueAt-(t.now+cost))
		}
		accept, _ := t.sys.controller(la).Write(issueAt, la)
		if t.remote {
			accept += cpu.RemoteWriteExtra
		}
		t.recordFlush(accept)
		t.pending = append(t.pending, accept)
		// The core stalls when its flush pipeline is saturated.
		t.advance(sim.Max(t.now+cost, issueAt))
	} else {
		if a := t.attr; a != nil {
			a.Add(telemetry.CompIssue, cost)
		}
		t.advance(t.now + cost)
	}
	if a := t.attr; a != nil {
		a.FinishOp(telemetry.ClassFlush, t.now-start)
	}
	t.record(kind, addr, start)
}

// SFence completes when every flush/nt-store issued since the last fence
// has been accepted into the ADR domain (the WPQ). Loads are not ordered.
func (t *Thread) SFence() {
	t.schedule()
	start := t.now
	t.fenceWait()
	t.lazyFlushed = t.lazyFlushed[:0]
	if a := t.attr; a != nil {
		a.FinishOp(telemetry.ClassFence, t.now-start)
	}
	t.record(mem.OpSFence, 0, start)
	t.emitPersist(telemetry.KindPersistFence, 0)
}

// MFence is SFence plus load ordering: subsequent loads may not issue
// before the fence completes, and pending clwb invalidations take
// effect — a following load of a flushed line must go to memory and
// stall on the in-flight persist (§3.5).
func (t *Thread) MFence() {
	t.schedule()
	start := t.now
	t.fenceWait()
	t.loadBarrier = t.now
	for _, la := range t.lazyFlushed {
		if l := t.core.L1.Peek(la); l != nil && l.Flushed {
			t.core.L1.Invalidate(la)
		}
	}
	t.lazyFlushed = t.lazyFlushed[:0]
	if a := t.attr; a != nil {
		a.FinishOp(telemetry.ClassFence, t.now-start)
	}
	t.record(mem.OpMFence, 0, start)
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

func (t *Thread) fenceWait() {
	base := t.now + t.feCost(t.cpu().FenceBaseCycles)
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
	cpu := t.cpu()
	srcLine := src.XPLine()
	t.sys.demand(src).DemandReadBytes += mem.XPLineSize

	// The four 512-bit load/store pairs form a dependent chain (each
	// SIMD register is stored to the staging buffer before the next
	// load), so the line reads serialize — the §4.3 copy overhead.
	done := t.now
	mc := t.sys.controller(src)
	attr := t.attr
	for i := 0; i < mem.LinesPerXPLine; i++ {
		la := srcLine + mem.Addr(i*mem.CachelineSize)
		// Serve from caches when present, without prefetch triggers.
		switch {
		case t.core.L1.Peek(la) != nil:
			done += t.core.L1.HitCycles()
			if attr != nil {
				attr.Add(telemetry.CompL1Hit, t.core.L1.HitCycles())
			}
		case t.core.L2.Peek(la) != nil:
			done += t.core.L2.HitCycles()
			if attr != nil {
				attr.Add(telemetry.CompL2Hit, t.core.L2.HitCycles())
			}
		case t.sys.l3.Peek(la) != nil:
			done += t.sys.l3.HitCycles()
			if attr != nil {
				attr.Add(telemetry.CompL3Hit, t.sys.l3.HitCycles())
			}
		default:
			if attr != nil {
				attr.Add(telemetry.CompL3Hit, t.sys.l3.HitCycles())
				attr.Add(telemetry.CompNUMA, t.remoteReadExtra(la))
			}
			done = mc.Read(done+t.sys.l3.HitCycles(), la, true) + t.remoteReadExtra(la)
		}
	}
	// Write the four destination cachelines (DRAM, cacheable).
	dstLine := dst.Line()
	for i := 0; i < mem.LinesPerXPLine; i++ {
		t.sys.demand(dst).DemandWriteBytes += mem.CachelineSize
		t.fillLevel(t.core.L1, dstLine+mem.Addr(i*mem.CachelineSize), true, false, done)
	}
	t.advance(done + 4*cpu.StoreCycles)
	if attr != nil {
		attr.Add(telemetry.CompIssue, 4*cpu.StoreCycles)
		attr.FinishOp(telemetry.ClassAVXCopy, t.now-start)
	}
}
