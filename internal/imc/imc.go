// Package imc models the integrated memory controller: the read pending
// queue (synchronous reads), the write pending queue (the ADR domain —
// stores complete on WPQ acceptance under the asynchronous DDR-T
// protocol), DIMM interleaving, and the read-after-persist hazard window
// that §3.5 measures.
package imc

import (
	"fmt"

	"optanesim/internal/fault"
	"optanesim/internal/mem"
	"optanesim/internal/sim"
	"optanesim/internal/telemetry"
	"optanesim/internal/trace"
)

// Device is a memory module behind the controller (an Optane DIMM or a
// DRAM DIMM).
type Device interface {
	// ReadLine serves one cacheline read arriving at now, returning its
	// completion time. demand marks program-demanded (vs prefetch) reads.
	ReadLine(now sim.Cycles, addr mem.Addr, demand bool) sim.Cycles
	// WriteLine absorbs one cacheline write arriving at now, returning
	// the time it lands in the device's persistent domain.
	WriteLine(now sim.Cycles, addr mem.Addr) sim.Cycles
	// RAPWindow is the device's read-after-persist hazard window.
	RAPWindow() sim.Cycles
	// Counters exposes the device's traffic counters.
	Counters() *trace.Counters
}

// Config parameterizes a controller.
type Config struct {
	// WPQDepth is the write pending queue capacity per device.
	WPQDepth int
	// WPQAcceptCycles is the CPU-visible cost of a WPQ acceptance.
	WPQAcceptCycles sim.Cycles
	// RPQCycles is the controller-side overhead on the read path.
	RPQCycles sim.Cycles
	// BusCycles is the DDR-T/DDR4 transfer time for one cacheline.
	BusCycles sim.Cycles
	// DrainGapCycles is the minimum spacing between consecutive WPQ
	// drains to the same device (command bus occupancy).
	DrainGapCycles sim.Cycles
	// InterleaveBits selects the DIMM-interleaving granule (2^bits
	// bytes); 12 = the platform's 4 KB interleaving.
	InterleaveBits uint
}

// DefaultConfig returns the controller parameters used by both testbeds.
func DefaultConfig() Config {
	return Config{
		WPQDepth:        64,
		WPQAcceptCycles: 140,
		RPQCycles:       25,
		BusCycles:       15,
		DrainGapCycles:  8,
		InterleaveBits:  12,
	}
}

// wpq tracks the occupancy of one device's write pending queue as a ring
// of landing times.
type wpq struct {
	land     []sim.Cycles
	head     int
	count    int
	lastLand sim.Cycles
}

func newWPQ(depth int) *wpq { return &wpq{land: make([]sim.Cycles, depth)} }

// popHead drops the oldest entry.
func (q *wpq) popHead() {
	q.head++
	if q.head == len(q.land) {
		q.head = 0
	}
	q.count--
}

// freeSlotAt returns the earliest time a slot is available for a write
// arriving at now, popping entries that have landed by then.
func (q *wpq) freeSlotAt(now sim.Cycles) sim.Cycles {
	for q.count > 0 && q.land[q.head] <= now {
		q.popHead()
	}
	if q.count < len(q.land) {
		return now
	}
	// Full: wait for the oldest entry to land.
	t := q.land[q.head]
	q.popHead()
	return t
}

func (q *wpq) push(landed sim.Cycles) {
	tail := q.head + q.count
	if tail >= len(q.land) {
		tail -= len(q.land)
	}
	q.land[tail] = landed
	q.count++
	q.lastLand = landed
}

// Controller routes reads and writes to its interleaved devices,
// enforcing WPQ capacity, DDR-T drain ordering, and RAP hazards.
type Controller struct {
	cfg  Config
	devs []Device
	wpqs []*wpq

	// hazards maps a cacheline to the time it becomes readable again
	// after a flush/nt-store was accepted (accept + device RAP window).
	// Which entries exist when is observable through time-rewound loads,
	// so the calls on it fix their lifecycle: a read that finds its
	// window closed deletes the entry, a write keeps the later close
	// time, and maybePruneHazards drops closed windows in bulk.
	hazards     mem.Table[sim.Cycles]
	hazardPrune int
	maxNow      sim.Cycles

	// tel, when non-nil, receives WPQ enqueue/drain/wait and hazard-stall
	// events; nil keeps the disabled path to a single pointer test.
	tel *telemetry.Probe
	// attr, when non-nil, is the shared cycle-attribution scratchpad: the
	// controller charges its queueing, hazard and acceptance components
	// into it, and wraps each write in an isolated service episode.
	attr *telemetry.OpAttr
	// wpqPeak is the high-water occupancy across all WPQs.
	wpqPeak int

	// fault, when non-nil, models transient controller stalls: writes
	// arriving inside an accept-pause window wait for it to close before
	// entering the WPQ. Nil keeps the healthy path to one pointer test.
	fault *fault.Injector
}

// SetTelemetry attaches (or, with nil, detaches) the controller's event
// probe.
func (c *Controller) SetTelemetry(p *telemetry.Probe) { c.tel = p }

// SetAttr attaches (or, with nil, detaches) the controller's
// cycle-attribution scratchpad.
func (c *Controller) SetAttr(a *telemetry.OpAttr) { c.attr = a }

// SetFaults attaches (or, with nil, detaches) a fault injector whose
// stall model pauses this controller's WPQ acceptance.
func (c *Controller) SetFaults(inj *fault.Injector) { c.fault = inj }

// NewController builds a controller over one or more interleaved devices.
func NewController(cfg Config, devs ...Device) *Controller {
	if len(devs) == 0 {
		panic("imc: NewController needs at least one device")
	}
	c := &Controller{cfg: cfg, devs: devs}
	c.hazards.Init(1 << 10)
	for range devs {
		c.wpqs = append(c.wpqs, newWPQ(cfg.WPQDepth))
	}
	return c
}

// route picks the device serving addr under 2^InterleaveBits-byte
// interleaving.
func (c *Controller) route(addr mem.Addr) int {
	if len(c.devs) == 1 {
		return 0
	}
	return int((uint64(addr) >> c.cfg.InterleaveBits) % uint64(len(c.devs)))
}

// Devices returns the controller's devices (for counter aggregation).
func (c *Controller) Devices() []Device { return c.devs }

// Counters sums traffic counters across the controller's devices and
// stamps in the controller's own WPQ occupancy peak.
func (c *Controller) Counters() trace.Counters {
	var total trace.Counters
	for _, d := range c.devs {
		total.Add(d.Counters())
	}
	total.WPQOccupancyPeak = uint64(c.wpqPeak)
	return total
}

// WPQOccupancy reports how many writes are in flight (accepted but not
// yet landed) across all of the controller's WPQs at time now. Entries
// are popped lazily, so the ring is scanned against their landing times.
func (c *Controller) WPQOccupancy(now sim.Cycles) int {
	occ := 0
	for _, q := range c.wpqs {
		for i := 0; i < q.count; i++ {
			idx := q.head + i
			if idx >= len(q.land) {
				idx -= len(q.land)
			}
			if q.land[idx] > now {
				occ++
			}
		}
	}
	return occ
}

// Read issues a cacheline read at time now and returns its completion
// time. demand marks program-demanded reads. Reads are synchronous and
// stall on an open read-after-persist hazard for the target line.
func (c *Controller) Read(now sim.Cycles, addr mem.Addr, demand bool) sim.Cycles {
	a := c.attr
	if a != nil && !demand {
		// Prefetch reads are service work the op does not wait on.
		a.BeginService()
	}
	line := addr.Line()
	if hu, ok := c.hazards.Get(line); ok {
		if hu > now {
			if c.tel != nil {
				c.tel.Emit(now, telemetry.KindHazardStall, line, uint64(hu-now))
			}
			if a != nil {
				a.Add(telemetry.CompHazard, hu-now)
			}
			now = hu
		} else {
			c.hazards.Del(line)
		}
	}
	c.observe(now)
	done := c.devs[c.route(addr)].ReadLine(now+c.cfg.RPQCycles, addr, demand)
	if a != nil {
		a.Add(telemetry.CompIMCQueue, c.cfg.RPQCycles+c.cfg.BusCycles)
		if !demand {
			a.EndService()
		}
	}
	return done + c.cfg.BusCycles
}

// Write issues a cacheline write (a cache writeback, clwb, or nt-store)
// at time now. It returns the WPQ acceptance time — the point at which
// the write has reached the ADR domain and the issuing flush is
// considered complete by a fence — and the time the write lands in the
// device's buffers. It also opens the line's RAP hazard window.
func (c *Controller) Write(now sim.Cycles, addr mem.Addr) (accept, landed sim.Cycles) {
	a := c.attr
	line := addr.Line()
	// Every write is its own isolated service episode: acceptance costs
	// plus the device-side install/evict cascade record as one sample.
	var savedBank telemetry.CompBank
	var savedDirty bool
	if a != nil {
		savedBank, savedDirty = a.BeginIsolated()
	}
	if c.fault != nil {
		if until := c.fault.StallUntil(now); until > now {
			if c.tel != nil {
				c.tel.Emit(now, telemetry.KindWPQStall, line, uint64(until-now))
			}
			if a != nil {
				a.Add(telemetry.CompAcceptPause, until-now)
			}
			now = until
		}
	}
	idx := c.route(addr)
	q := c.wpqs[idx]
	slotAt := q.freeSlotAt(now)
	if slotAt > now {
		if c.tel != nil {
			c.tel.Emit(now, telemetry.KindWPQWait, line, uint64(slotAt-now))
		}
		if a != nil {
			a.Add(telemetry.CompWPQWait, slotAt-now)
		}
	}
	if a != nil {
		a.Add(telemetry.CompWPQAccept, c.cfg.WPQAcceptCycles)
	}
	accept = sim.Max(now, slotAt) + c.cfg.WPQAcceptCycles
	start := sim.Max(accept, q.lastLand+c.cfg.DrainGapCycles)
	landed = c.devs[idx].WriteLine(start, addr)
	q.push(landed)
	if q.count > c.wpqPeak {
		c.wpqPeak = q.count
	}
	if c.tel != nil {
		c.tel.Emit(accept, telemetry.KindWPQEnqueue, line, uint64(q.count))
		c.tel.Emit(landed, telemetry.KindWPQDrain, line, 0)
	}
	if a != nil {
		a.EndIsolated(savedBank, savedDirty)
	}

	hazard := accept + c.devs[idx].RAPWindow()
	if hu := c.hazards.Ref(line); hu == nil {
		c.hazards.Put(line, hazard)
	} else if hazard > *hu {
		*hu = hazard
	}
	c.observe(accept)
	c.maybePruneHazards()
	return accept, landed
}

// observe tracks the high-water mark of simulated time for hazard
// pruning.
func (c *Controller) observe(now sim.Cycles) {
	if now > c.maxNow {
		c.maxNow = now
	}
}

// maybePruneHazards bounds the hazard table by sweeping expired entries
// periodically. The trigger (write counter and live-entry floor) and the
// expiry criterion are those of the original map-based implementation,
// because the moment entries disappear is observable to time-rewound
// loads and must not move.
func (c *Controller) maybePruneHazards() {
	c.hazardPrune++
	if c.hazardPrune < 1<<15 || c.hazards.Len() < 1<<14 {
		return
	}
	c.hazardPrune = 0
	c.hazards.DeleteIf(func(hu sim.Cycles) bool { return hu <= c.maxNow })
}

func (c *Controller) String() string {
	return fmt.Sprintf("imc.Controller{%d devices, wpq depth %d}", len(c.devs), c.cfg.WPQDepth)
}
