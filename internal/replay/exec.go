package replay

import (
	"fmt"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/sim"
	"optanesim/internal/trace"
)

// Assign selects how records are distributed over simulated threads.
// Every policy is a pure function of the record stream, so a trace
// replays onto the same per-thread op sequences on every run.
type Assign int

const (
	// AssignTrace uses the record's explicit thread field (modulo the
	// thread count); records without one fall back to AssignAddr, and
	// fences without one run on thread 0.
	AssignTrace Assign = iota
	// AssignAddr hashes the record's cacheline address, giving each
	// line a stable home thread; fences run on thread 0.
	AssignAddr
	// AssignRoundRobin deals records (fences included) over the
	// threads in stream order.
	AssignRoundRobin
)

func (a Assign) String() string {
	switch a {
	case AssignAddr:
		return "addr"
	case AssignRoundRobin:
		return "rr"
	default:
		return "trace"
	}
}

// ParseAssign maps a policy name ("trace", "addr", "rr") to its Assign
// value.
func ParseAssign(s string) (Assign, error) {
	switch s {
	case "", "trace":
		return AssignTrace, nil
	case "addr":
		return AssignAddr, nil
	case "rr", "roundrobin":
		return AssignRoundRobin, nil
	}
	return AssignTrace, fmt.Errorf("replay: unknown assignment policy %q", s)
}

// ExecOptions configures a replay run.
type ExecOptions struct {
	// Threads is the number of simulated threads (default 1). The
	// machine is built with one core per thread.
	Threads int
	// Window is the size in bytes of the PM aperture trace addresses
	// are folded into (default 64 MB). It must be a multiple of the
	// cacheline size; addresses map to PMBase + (line mod Window).
	Window uint64
	// Passes replays the whole assigned stream this many times
	// (default 1).
	Passes int
	// Assign selects the thread-assignment policy.
	Assign Assign
}

func (o *ExecOptions) defaults() {
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.Window == 0 {
		o.Window = 64 << 20
	}
	o.Window &^= mem.CachelineSize - 1
	if o.Window < mem.CachelineSize {
		o.Window = mem.CachelineSize
	}
	if o.Passes <= 0 {
		o.Passes = 1
	}
}

// ThreadStat is one simulated thread's share of a replay.
type ThreadStat struct {
	Name   string     `json:"name"`
	Ops    uint64     `json:"ops"`
	Cycles sim.Cycles `json:"cycles"`
}

// Result is the outcome of a replay run.
type Result struct {
	// Ops is the total number of machine operations executed (trace
	// records expand to one op per covered cacheline, times Passes).
	Ops uint64
	// EndCycles is the simulated completion time.
	EndCycles sim.Cycles
	// Threads holds per-thread ops and finish times, in thread order.
	Threads []ThreadStat
	// PM is the aggregated PM traffic of the run.
	PM trace.Counters
}

// execOp is one expanded machine operation.
type execOp struct {
	kind mem.OpKind
	addr mem.Addr
}

// fnv1a hashes a cacheline address for AssignAddr.
func fnv1a(v uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// threadOf resolves the record's home thread under the policy.
func threadOf(op Op, idx, threads int, a Assign) int {
	if threads == 1 {
		return 0
	}
	switch a {
	case AssignRoundRobin:
		return idx % threads
	case AssignTrace:
		if op.Thread >= 0 {
			return op.Thread % threads
		}
	}
	// AssignAddr, and AssignTrace records without a thread field.
	if op.Kind == mem.OpSFence || op.Kind == mem.OpMFence {
		return 0
	}
	return int(fnv1a(op.Addr&^(mem.CachelineSize-1)) % uint64(threads))
}

// expand appends the machine operations of one record: one op per
// cacheline the [Addr, Addr+Size) footprint covers, folded into the PM
// window.
func expand(dst []execOp, op Op, window uint64) []execOp {
	if op.Kind == mem.OpSFence || op.Kind == mem.OpMFence {
		return append(dst, execOp{kind: op.Kind})
	}
	size := uint64(op.Size)
	if size == 0 {
		size = mem.CachelineSize
	}
	first := op.Addr &^ (mem.CachelineSize - 1)
	end := op.Addr + size - 1
	if end < op.Addr { // footprint overflows the address space: clamp
		end = ^uint64(0)
	}
	last := end &^ (mem.CachelineSize - 1)
	for la := first; ; la += mem.CachelineSize {
		dst = append(dst, execOp{kind: op.Kind, addr: mem.PMBase + mem.Addr(la%window)})
		if la == last || la > la+mem.CachelineSize { // la+64 would wrap
			break
		}
	}
	return dst
}

// Exec replays parsed records on a machine built from cfg and run by m,
// which attaches its fault injector and telemetry recorder. The records
// are partitioned over o.Threads simulated threads by the assignment
// policy, each thread executes its sub-stream in trace order (o.Passes
// times), and the threads contend for the shared memory system under
// the deterministic scheduler — so on a bare meter the result is a pure
// function of (cfg, ops, o).
func Exec(m *machine.Meter, cfg machine.Config, ops []Op, o ExecOptions) Result {
	o.defaults()
	if cfg.Cores < o.Threads {
		cfg.Cores = o.Threads
	}
	streams := make([][]execOp, o.Threads)
	for i, op := range ops {
		w := threadOf(op, i, o.Threads, o.Assign)
		streams[w] = expand(streams[w], op, o.Window)
	}

	sys := m.System(cfg)
	res := Result{Threads: make([]ThreadStat, o.Threads)}
	threads := make([]*machine.Thread, o.Threads)
	for w := 0; w < o.Threads; w++ {
		w := w
		stream := streams[w]
		threads[w] = sys.Go(fmt.Sprintf("replay%d", w), w, false, func(t *machine.Thread) {
			for p := 0; p < o.Passes; p++ {
				for _, e := range stream {
					t.Apply(e.kind, e.addr)
				}
			}
		})
	}
	res.EndCycles = m.Run(sys)
	for w, t := range threads {
		res.Threads[w] = ThreadStat{Name: t.Name(), Ops: t.Ops(), Cycles: t.Now()}
		res.Ops += t.Ops()
	}
	res.PM = sys.PMCounters()
	return res
}
