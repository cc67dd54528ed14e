// Package dram models a DDR4 DRAM DIMM: synchronous reads with high
// concurrency, writes that land almost immediately, and no access-
// granularity mismatch. It provides the baseline device for every
// PM-vs-DRAM comparison in the paper.
package dram

import (
	"optanesim/internal/mem"
	"optanesim/internal/sim"
	"optanesim/internal/telemetry"
	"optanesim/internal/trace"
)

// Profile holds the DRAM timing parameters. The G2 platform's higher
// cache-coherence cost (observed in §3.5 as a higher DRAM load latency)
// is folded into ReadCycles.
type Profile struct {
	Name string
	// ReadCycles is the device service time for one cacheline read.
	ReadCycles sim.Cycles
	// WriteCycles is the device service time for absorbing one
	// cacheline write (DRAM writes drain quickly).
	WriteCycles sim.Cycles
	// Ports is the number of concurrent accesses the DIMM sustains
	// (bank-level parallelism).
	Ports int
	// RAPWindowCycles is the short hazard window for reading a line
	// whose flush is still in flight — the paper measures a ~2x latency
	// gap on DRAM versus ~10x on Optane (§3.5).
	RAPWindowCycles sim.Cycles
}

// DDR4G1 returns the DRAM profile of the G1 testbed.
func DDR4G1() Profile {
	return Profile{Name: "DDR4-G1", ReadCycles: 190, WriteCycles: 20, Ports: 8, RAPWindowCycles: 350}
}

// DDR4G2 returns the DRAM profile of the G2 testbed, with the extra
// coherence cost of the newer platform folded into the read latency.
func DDR4G2() Profile {
	return Profile{Name: "DDR4-G2", ReadCycles: 290, WriteCycles: 20, Ports: 8, RAPWindowCycles: 520}
}

// DIMM is a simulated DRAM module.
type DIMM struct {
	prof  Profile
	ports *sim.Ports
	c     trace.Counters

	// attr, when non-nil, is the shared cycle-attribution scratchpad the
	// DIMM charges its port service time into.
	attr *telemetry.OpAttr
}

// NewDIMM constructs a DRAM DIMM.
func NewDIMM(prof Profile) *DIMM {
	if prof.Ports <= 0 {
		prof.Ports = 8
	}
	return &DIMM{prof: prof, ports: sim.NewPorts(prof.Ports)}
}

// Profile returns the DIMM's configuration.
func (d *DIMM) Profile() Profile { return d.prof }

// Counters exposes the DIMM's traffic counters. DRAM has no separate
// media boundary, so media counters mirror iMC counters.
func (d *DIMM) Counters() *trace.Counters { return &d.c }

// RAPWindow reports the device's read-after-persist hazard window.
func (d *DIMM) RAPWindow() sim.Cycles { return d.prof.RAPWindowCycles }

// SetAttr attaches (or, with nil, detaches) the DIMM's cycle-attribution
// scratchpad.
func (d *DIMM) SetAttr(a *telemetry.OpAttr) { d.attr = a }

// ReadLine serves a cacheline read arriving at time now.
func (d *DIMM) ReadLine(now sim.Cycles, addr mem.Addr, demand bool) sim.Cycles {
	d.c.IMCReadBytes += mem.CachelineSize
	d.c.MediaReadBytes += mem.CachelineSize
	_, done := d.ports.Acquire(now, d.prof.ReadCycles)
	if a := d.attr; a != nil {
		a.Add(telemetry.CompDRAM, done-now)
	}
	return done
}

// WriteLine absorbs a cacheline write arriving at time now.
func (d *DIMM) WriteLine(now sim.Cycles, addr mem.Addr) sim.Cycles {
	d.c.IMCWriteBytes += mem.CachelineSize
	d.c.MediaWriteBytes += mem.CachelineSize
	_, done := d.ports.Acquire(now, d.prof.WriteCycles)
	if a := d.attr; a != nil {
		a.Add(telemetry.CompDRAM, done-now)
	}
	return done
}
