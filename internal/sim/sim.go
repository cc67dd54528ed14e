// Package sim provides the simulation kernel shared by every component of
// the memory-hierarchy model: a cycle-granularity clock type, k-server
// resources with queueing, and small deterministic helpers.
//
// The simulator is a cycle-accounting model, not an event-driven one:
// every operation is a synchronous walk through the component graph that
// carries the current time, and shared components record their
// next-free times so that queueing delay emerges from
// start = max(now, server.free). Together with the deterministic
// min-time thread scheduler in internal/machine this yields exact,
// reproducible contention behaviour without goroutine-level races.
package sim

import "fmt"

// Cycles is a point in (or span of) simulated time, measured in CPU
// cycles of the simulated machine. Spans and instants share the type for
// arithmetic convenience; all simulator APIs document which they take.
type Cycles int64

// String renders a cycle count with a unit suffix for diagnostics.
func (c Cycles) String() string { return fmt.Sprintf("%dcyc", int64(c)) }

// Ports models a shared hardware resource with k parallel servers, such
// as the media read ports of an Optane DIMM or the DDR-T command bus.
// Acquire serializes work onto the least-loaded server.
//
// The zero value is unusable; construct with NewPorts.
type Ports struct {
	free []Cycles // next time each server becomes available
	busy Cycles   // total busy cycles, for utilization reporting
}

// NewPorts returns a resource with k parallel servers, all idle at time 0.
func NewPorts(k int) *Ports {
	if k <= 0 {
		panic(fmt.Sprintf("sim: NewPorts called with k=%d", k))
	}
	return &Ports{free: make([]Cycles, k)}
}

// Acquire reserves the earliest-available server for service cycles,
// starting no earlier than now. It returns the time service begins
// (start >= now) and the time it completes (done = start + service).
func (p *Ports) Acquire(now, service Cycles) (start, done Cycles) {
	best := 0
	for i := 1; i < len(p.free); i++ {
		if p.free[i] < p.free[best] {
			best = i
		}
	}
	start = now
	if p.free[best] > start {
		start = p.free[best]
	}
	done = start + service
	p.free[best] = done
	p.busy += service
	return start, done
}

// NextFree reports the earliest time any server becomes available.
func (p *Ports) NextFree() Cycles {
	best := p.free[0]
	for _, f := range p.free[1:] {
		if f < best {
			best = f
		}
	}
	return best
}

// BusyCycles reports the total cycles of service this resource has
// performed, summed over servers.
func (p *Ports) BusyCycles() Cycles { return p.busy }

// Servers reports the number of parallel servers.
func (p *Ports) Servers() int { return len(p.free) }

// Reset returns all servers to idle at time 0 and clears utilization.
func (p *Ports) Reset() {
	for i := range p.free {
		p.free[i] = 0
	}
	p.busy = 0
}

// Max returns the later of two instants.
func Max(a, b Cycles) Cycles {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of two instants.
func Min(a, b Cycles) Cycles {
	if a < b {
		return a
	}
	return b
}
