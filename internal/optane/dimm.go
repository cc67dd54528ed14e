package optane

import (
	"optanesim/internal/fault"
	"optanesim/internal/mem"
	"optanesim/internal/sim"
	"optanesim/internal/telemetry"
	"optanesim/internal/trace"
)

// DIMM is one simulated Optane persistent-memory module: the AIT cache,
// the read buffer, the write-combining buffer, and the 3D-XPoint media
// ports, with traffic counters at the iMC and media boundaries.
//
// The DIMM is not safe for concurrent use; the machine scheduler
// guarantees single-threaded access.
type DIMM struct {
	prof Profile
	ait  *aitCache
	rb   *readBuffer
	wb   *writeBuffer

	readPorts  *sim.Ports
	writePorts *sim.Ports

	c trace.Counters
	// rbPeak/wbPeak are the buffers' occupancy high-water marks, synced
	// into c by Counters.
	rbPeak, wbPeak int

	// tel, when non-nil, receives buffer/AIT/media events; nil keeps the
	// disabled path to a single pointer test per decision point.
	tel *telemetry.Probe
	// attr, when non-nil, is the shared cycle-attribution scratchpad the
	// DIMM charges its buffer, AIT and media components into.
	attr *telemetry.OpAttr

	// fault, when non-nil, degrades the media ports: thermal derating of
	// media latencies, poisoned-XPLine read penalties, and write-arming
	// of new UEs. Nil keeps the healthy path to a single pointer test.
	fault *fault.Injector
}

// NewDIMM constructs a DIMM with the given profile. The seed drives the
// write buffer's random eviction policy.
func NewDIMM(prof Profile, seed uint64) (*DIMM, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	d := &DIMM{
		prof:       prof,
		ait:        newAITCache(prof.AITEntries, prof.AITGranuleBits),
		readPorts:  sim.NewPorts(prof.ReadPorts),
		writePorts: sim.NewPorts(prof.WritePorts),
	}
	d.wb = newWriteBuffer(&d.prof, sim.NewRand(seed))
	d.rb = newReadBuffer(prof.ReadBufLines, prof.ReadBufRetainsServedLines)
	return d, nil
}

// MustNewDIMM is NewDIMM for known-good profiles.
func MustNewDIMM(prof Profile, seed uint64) *DIMM {
	d, err := NewDIMM(prof, seed)
	if err != nil {
		panic(err)
	}
	return d
}

// Profile returns the DIMM's configuration.
func (d *DIMM) Profile() Profile { return d.prof }

// SetTelemetry attaches (or, with nil, detaches) the DIMM's event probe.
func (d *DIMM) SetTelemetry(p *telemetry.Probe) {
	d.tel = p
	d.rb.tel = p
}

// SetAttr attaches (or, with nil, detaches) the DIMM's cycle-attribution
// scratchpad.
func (d *DIMM) SetAttr(a *telemetry.OpAttr) { d.attr = a }

// SetFaults attaches (or, with nil, detaches) a fault injector whose
// thermal and poison models degrade this DIMM's media ports.
func (d *DIMM) SetFaults(inj *fault.Injector) { d.fault = inj }

// mediaReadCycles resolves one media read's latency at time t: the
// profile's base latency, stretched by any thermal window and extended
// by the UE detect penalty when the XPLine is poisoned.
func (d *DIMM) mediaReadCycles(t sim.Cycles, xpl mem.Addr) sim.Cycles {
	mrc := d.prof.MediaReadCycles
	if d.fault == nil {
		return mrc
	}
	mrc = d.fault.DerateMedia(t, mrc)
	if extra, bad := d.fault.MediaRead(xpl); bad {
		mrc += extra
		if d.tel != nil {
			d.tel.Emit(t, telemetry.KindPoisonRead, xpl, uint64(extra))
		}
	}
	return mrc
}

// mediaWriteCycles resolves one media write's latency at time t (thermal
// derating) and records the full-XPLine rewrite with the injector, which
// clears resident poison and may arm a fresh wear-induced UE.
func (d *DIMM) mediaWriteCycles(t sim.Cycles, xpl mem.Addr) sim.Cycles {
	mwc := d.prof.MediaWriteCycles
	if d.fault == nil {
		return mwc
	}
	mwc = d.fault.DerateMedia(t, mwc)
	if d.fault.MediaWrite(xpl) && d.tel != nil {
		d.tel.Emit(t, telemetry.KindPoisonArm, xpl, 0)
	}
	return mwc
}

// Counters exposes the DIMM's traffic counters, syncing in the
// buffer-derived flow counters and occupancy peaks.
func (d *DIMM) Counters() *trace.Counters {
	d.c.RBEvictions = d.rb.evictions
	d.c.WCBEvictions = d.wb.evictions
	d.c.WCBPeriodicWBs = d.wb.periodicWBs
	d.c.RBOccupancyPeak = uint64(d.rbPeak)
	d.c.WCBOccupancyPeak = uint64(d.wbPeak)
	return &d.c
}

// RAPWindow reports the read-after-persist hazard window of this device.
func (d *DIMM) RAPWindow() sim.Cycles { return d.prof.RAPWindowCycles }

// ReadBufferLen reports the current read-buffer occupancy in XPLines.
func (d *DIMM) ReadBufferLen() int { return d.rb.Len() }

// WriteBufferLen reports the current write-buffer occupancy in XPLines.
func (d *DIMM) WriteBufferLen() int { return d.wb.Len() }

// AITHitRatio reports the AIT cache hit ratio so far.
func (d *DIMM) AITHitRatio() float64 { return d.ait.HitRatio() }

// ReadLine serves a 64 B read request arriving from the iMC at time now
// and returns the completion time at the DIMM pins. demand distinguishes
// program-demanded reads from CPU prefetches for accounting only — the
// DIMM treats both identically (§3.4: the DIMM itself does not prefetch,
// but must read whole XPLines on behalf of cacheline prefetches).
func (d *DIMM) ReadLine(now sim.Cycles, addr mem.Addr, demand bool) sim.Cycles {
	d.drainPeriodic(now)
	d.c.IMCReadBytes += mem.CachelineSize

	// The write-combining buffer is probed first: a read of freshly
	// written data is served on-DIMM (§3.3).
	if d.wb.Contains(addr) {
		d.c.BufferReadHits++
		if d.tel != nil {
			d.tel.Emit(now, telemetry.KindWCBHit, addr.Line(), 0)
		}
		if a := d.attr; a != nil {
			a.Add(telemetry.CompWCBHit, d.prof.BufReadHitCycles)
		}
		return now + d.prof.BufReadHitCycles
	}
	// Read-buffer hit: serve and consume the cacheline (cache-exclusive).
	if readyAt, ok := d.rb.Probe(addr); ok {
		d.c.BufferReadHits++
		if d.tel != nil {
			d.tel.Emit(sim.Max(now, readyAt), telemetry.KindRBHit, addr.Line(), 0)
		}
		done := sim.Max(now, readyAt) + d.prof.BufReadHitCycles
		if a := d.attr; a != nil {
			a.Add(telemetry.CompRBHit, done-now)
		}
		return done
	}
	// Media read of the whole XPLine, via the AIT.
	t := now
	ait := d.ait.Lookup(addr)
	if !ait {
		t += d.prof.AITMissCycles
	}
	_, done := d.readPorts.Acquire(t, d.mediaReadCycles(t, addr.XPLine()))
	d.c.MediaReads++
	d.c.MediaReadBytes += mem.XPLineSize
	if d.tel != nil {
		d.tel.Emit(now, telemetry.KindRBMiss, addr.Line(), 0)
		d.emitAIT(now, addr, ait)
		d.tel.Emit(done, telemetry.KindMediaRead, addr.XPLine(), 0)
		d.tel.Emit(done, telemetry.KindRBInstall, addr.XPLine(), 0)
	}
	if a := d.attr; a != nil {
		a.Add(telemetry.CompAIT, t-now)
		a.Add(telemetry.CompMedia, done-t)
		a.Add(telemetry.CompRBXfer, d.prof.BufReadHitCycles/4)
	}
	d.rb.Install(addr, addr.LineInXPLine(), done)
	if n := d.rb.Len(); n > d.rbPeak {
		d.rbPeak = n
	}
	return done + d.prof.BufReadHitCycles/4
}

// emitAIT records one AIT cache outcome; callers hold d.tel != nil.
func (d *DIMM) emitAIT(at sim.Cycles, addr mem.Addr, hit bool) {
	k := telemetry.KindAITMiss
	if hit {
		k = telemetry.KindAITHit
	}
	d.tel.Emit(at, k, addr.XPLine(), 0)
}

// WriteLine absorbs one 64 B write draining from the WPQ at time now and
// returns the time the write has landed in the on-DIMM buffers (the ADR
// domain on the DIMM side). Backpressure from evictions propagates
// through the returned time.
func (d *DIMM) WriteLine(now sim.Cycles, addr mem.Addr) sim.Cycles {
	d.drainPeriodic(now)
	d.c.IMCWriteBytes += mem.CachelineSize

	// Merge into a resident write-buffer entry.
	if d.wb.Merge(addr, now) {
		d.c.BufferWriteHits++
		if d.tel != nil {
			d.tel.Emit(now, telemetry.KindWCBMerge, addr.Line(), 0)
		}
		if a := d.attr; a != nil {
			a.Add(telemetry.CompWCBInstall, d.prof.WriteAcceptCycles)
		}
		return now + d.prof.WriteAcceptCycles
	}
	// Transition from the read buffer: the full XPLine data is already
	// on-DIMM, so the write avoids the RMW media read (§3.3).
	if d.rb.Take(addr) {
		accept := d.ensureSpace(now)
		d.wb.Allocate(addr, true)
		d.c.BufferWriteHits++
		d.noteWCBAlloc(now, addr, 1)
		if a := d.attr; a != nil {
			a.Add(telemetry.CompWCBInstall, d.prof.WriteAcceptCycles)
		}
		return sim.Max(accept, now) + d.prof.WriteAcceptCycles
	}
	accept := d.ensureSpace(now)
	d.wb.Allocate(addr, false)
	d.noteWCBAlloc(now, addr, 0)
	if a := d.attr; a != nil {
		a.Add(telemetry.CompWCBInstall, d.prof.WriteAcceptCycles)
	}
	return sim.Max(accept, now) + d.prof.WriteAcceptCycles
}

// noteWCBAlloc tracks the write buffer's occupancy peak and emits the
// allocation event (fromRB is 1 for read-buffer transitions).
func (d *DIMM) noteWCBAlloc(now sim.Cycles, addr mem.Addr, fromRB uint64) {
	if n := d.wb.Len(); n > d.wbPeak {
		d.wbPeak = n
	}
	if d.tel != nil {
		d.tel.Emit(now, telemetry.KindWCBAlloc, addr.XPLine(), fromRB)
	}
}

// ensureSpace evicts write-buffer entries if occupancy has reached the
// generation's high watermark, returning the time a slot is free.
func (d *DIMM) ensureSpace(now sim.Cycles) sim.Cycles {
	if !d.wb.NeedsEviction() {
		return now
	}
	victims := d.wb.PickVictims(d.prof.WriteBufBatchEvict)
	slotFree := sim.Cycles(-1)
	for _, v := range victims {
		free := d.evict(v, now)
		if slotFree < 0 || free < slotFree {
			slotFree = free
		}
	}
	if slotFree < 0 {
		return now
	}
	return slotFree
}

// evict writes one victim XPLine back to the media, performing the RMW
// read first when the entry lacks full base data. It returns the time
// the buffer slot becomes reusable (the media write's issue time — the
// write itself completes asynchronously).
func (d *DIMM) evict(v wbEntry, now sim.Cycles) sim.Cycles {
	t := now
	var rmw uint64
	if !v.hasBase {
		// Read-modify-write: fetch the unwritten remainder. The read
		// buffer can supply it for free if the XPLine is resident.
		if d.rb.Take(v.xpl) {
			// Base data supplied by the read buffer; no media read.
		} else {
			rmw = 1
			ait := d.ait.Lookup(v.xpl)
			if !ait {
				t += d.prof.AITMissCycles
			}
			_, done := d.readPorts.Acquire(t, d.mediaReadCycles(t, v.xpl))
			d.c.MediaReads++
			d.c.MediaReadBytes += mem.XPLineSize
			if d.tel != nil {
				d.emitAIT(now, v.xpl, ait)
				d.tel.Emit(done, telemetry.KindMediaRead, v.xpl, 0)
			}
			t = done
		}
	}
	start, wdone := d.writePorts.Acquire(t, d.mediaWriteCycles(t, v.xpl))
	d.c.MediaWrites++
	d.c.MediaWriteBytes += mem.XPLineSize
	if d.tel != nil {
		d.tel.Emit(now, telemetry.KindWCBEvict, v.xpl, rmw)
		d.tel.Emit(start, telemetry.KindMediaWrite, v.xpl, 0)
	}
	if a := d.attr; a != nil {
		a.Add(telemetry.CompEvictRMW, t-now)
		a.Add(telemetry.CompMediaWrite, wdone-t)
	}
	return start
}

// drainPeriodic performs G1's periodic write-back of fully modified
// XPLines whose deadline has passed.
func (d *DIMM) drainPeriodic(now sim.Cycles) {
	due := d.wb.DuePeriodic(now)
	if len(due) == 0 {
		return
	}
	a := d.attr
	if a != nil {
		// Periodic write-back is pure background work: pool it as one
		// service episode (or into the enclosing one) rather than
		// charging the triggering op.
		a.BeginService()
	}
	for _, e := range due {
		deadline := sim.Max(e.fullAt+d.prof.PeriodicWritebackCycles, 0)
		start, wdone := d.writePorts.Acquire(deadline, d.mediaWriteCycles(deadline, e.xpl))
		d.c.MediaWrites++
		d.c.MediaWriteBytes += mem.XPLineSize
		if d.tel != nil {
			d.tel.Emit(sim.Max(deadline, 0), telemetry.KindWCBPeriodicWB, e.xpl, 0)
			d.tel.Emit(start, telemetry.KindMediaWrite, e.xpl, 0)
		}
		if a != nil {
			a.Add(telemetry.CompPeriodicWB, wdone-deadline)
		}
	}
	if a != nil {
		a.EndService()
	}
}
