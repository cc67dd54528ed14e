// Package script implements a tiny workload-description language and
// its runner, so access patterns can be explored on the simulator
// without writing Go. The cmd/pmsim tool is a thin wrapper around it.
//
// Grammar (one statement per line, '#' starts a comment):
//
//	gen g1|g2                     select the testbed generation
//	dimms N                       interleaved Optane DIMMs (default 1)
//	prefetch all|none             CPU prefetchers (default all)
//	region NAME pm|dram SIZE      declare a region (SIZE like 64K, 4M)
//	thread NAME [core=N] [remote] begin a thread block
//	  loop N                      begin a repetition block
//	    load REGION MODE          ordinary load
//	    loaddep REGION MODE       dependent (pointer-chase-like) load
//	    store REGION MODE         cacheable store
//	    ntstore REGION MODE       non-temporal store
//	    clwb REGION MODE          cacheline write-back
//	    clflush REGION MODE       clflushopt
//	    sfence | mfence           fences
//	    compute N                 N cycles of computation
//	  end
//	end
//
// MODE is one of:
//
//	seq     the thread's per-region sequential cursor (stride 64 B)
//	rand    a uniformly random cacheline in the region
//	last    the thread's most recently touched address in the region
package script

import (
	"fmt"
	"strconv"
	"strings"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/prefetch"
	"optanesim/internal/sim"
)

// Program is a parsed script.
type Program struct {
	Gen      int // 1 or 2
	DIMMs    int
	Prefetch prefetch.Config
	Regions  []Region
	Threads  []ThreadDecl
}

// Region is a declared memory region.
type Region struct {
	Name string
	PM   bool
	Size uint64
}

// ThreadDecl is one thread block.
type ThreadDecl struct {
	Name   string
	Core   int
	Remote bool
	Body   []Stmt
}

// Stmt is one statement: either an op or a loop.
type Stmt struct {
	// Op is the operation name ("load", "sfence", ...); empty for loops.
	Op     string
	Region string
	Mode   string
	N      int64 // compute cycles

	// Loop fields.
	Count int
	Body  []Stmt
}

// Parse parses a script.
func Parse(src string) (*Program, error) {
	p := &Program{Gen: 1, DIMMs: 1, Prefetch: prefetch.All()}
	lines := strings.Split(src, "\n")

	type frame struct {
		body  *[]Stmt
		loop  *Stmt
		isThr bool
	}
	var stack []frame
	var curThread *ThreadDecl

	fail := func(ln int, f string, args ...interface{}) error {
		return fmt.Errorf("script: line %d: %s", ln+1, fmt.Sprintf(f, args...))
	}

	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		cmd := strings.ToLower(fields[0])
		inThread := curThread != nil

		switch cmd {
		case "gen":
			if inThread || len(fields) != 2 {
				return nil, fail(ln, "gen g1|g2 at top level")
			}
			switch strings.ToLower(fields[1]) {
			case "g1":
				p.Gen = 1
			case "g2":
				p.Gen = 2
			default:
				return nil, fail(ln, "unknown generation %q", fields[1])
			}

		case "dimms":
			if inThread || len(fields) != 2 {
				return nil, fail(ln, "dimms N at top level")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 1 {
				return nil, fail(ln, "bad DIMM count %q", fields[1])
			}
			p.DIMMs = n

		case "prefetch":
			if inThread || len(fields) != 2 {
				return nil, fail(ln, "prefetch all|none at top level")
			}
			switch strings.ToLower(fields[1]) {
			case "all":
				p.Prefetch = prefetch.All()
			case "none":
				p.Prefetch = prefetch.None()
			default:
				return nil, fail(ln, "unknown prefetch setting %q", fields[1])
			}

		case "region":
			if inThread || len(fields) != 4 {
				return nil, fail(ln, "region NAME pm|dram SIZE at top level")
			}
			size, err := ParseSize(fields[3])
			if err != nil {
				return nil, fail(ln, "%v", err)
			}
			var pm bool
			switch strings.ToLower(fields[2]) {
			case "pm":
				pm = true
			case "dram":
				pm = false
			default:
				return nil, fail(ln, "region kind must be pm or dram")
			}
			name := fields[1]
			for _, r := range p.Regions {
				if r.Name == name {
					return nil, fail(ln, "duplicate region %q", name)
				}
			}
			p.Regions = append(p.Regions, Region{Name: name, PM: pm, Size: size})

		case "thread":
			if inThread || len(fields) < 2 {
				return nil, fail(ln, "thread NAME [core=N] [remote] at top level")
			}
			t := ThreadDecl{Name: fields[1]}
			for _, opt := range fields[2:] {
				switch {
				case opt == "remote":
					t.Remote = true
				case strings.HasPrefix(opt, "core="):
					n, err := strconv.Atoi(opt[5:])
					if err != nil || n < 0 {
						return nil, fail(ln, "bad core %q", opt)
					}
					t.Core = n
				default:
					return nil, fail(ln, "unknown thread option %q", opt)
				}
			}
			p.Threads = append(p.Threads, t)
			curThread = &p.Threads[len(p.Threads)-1]
			stack = append(stack, frame{body: &curThread.Body, isThr: true})

		case "loop":
			if !inThread || len(fields) != 2 {
				return nil, fail(ln, "loop N inside a thread block")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 1 {
				return nil, fail(ln, "bad loop count %q", fields[1])
			}
			top := stack[len(stack)-1]
			*top.body = append(*top.body, Stmt{Count: n})
			loop := &(*top.body)[len(*top.body)-1]
			stack = append(stack, frame{body: &loop.Body, loop: loop})

		case "end":
			if len(stack) == 0 {
				return nil, fail(ln, "end without an open block")
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if top.isThr {
				curThread = nil
			}

		case "sfence", "mfence":
			if !inThread {
				return nil, fail(ln, "%s inside a thread block", cmd)
			}
			top := stack[len(stack)-1]
			*top.body = append(*top.body, Stmt{Op: cmd})

		case "compute":
			if !inThread || len(fields) != 2 {
				return nil, fail(ln, "compute N inside a thread block")
			}
			n, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil || n < 0 {
				return nil, fail(ln, "bad cycle count %q", fields[1])
			}
			top := stack[len(stack)-1]
			*top.body = append(*top.body, Stmt{Op: cmd, N: n})

		case "load", "loaddep", "store", "ntstore", "clwb", "clflush":
			if !inThread || len(fields) != 3 {
				return nil, fail(ln, "%s REGION MODE inside a thread block", cmd)
			}
			region, mode := fields[1], strings.ToLower(fields[2])
			if mode != "seq" && mode != "rand" && mode != "last" {
				return nil, fail(ln, "mode must be seq, rand or last")
			}
			found := false
			for _, r := range p.Regions {
				if r.Name == region {
					found = true
					break
				}
			}
			if !found {
				return nil, fail(ln, "unknown region %q", region)
			}
			top := stack[len(stack)-1]
			*top.body = append(*top.body, Stmt{Op: cmd, Region: region, Mode: mode})

		default:
			return nil, fail(ln, "unknown statement %q", cmd)
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("script: unclosed block at end of input")
	}
	if len(p.Threads) == 0 {
		return nil, fmt.Errorf("script: no threads declared")
	}
	return p, nil
}

// ParseSize parses "64", "64K", "4M", "1G".
func ParseSize(s string) (uint64, error) {
	mult := uint64(1)
	u := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(u, "K"):
		mult, u = 1<<10, u[:len(u)-1]
	case strings.HasSuffix(u, "M"):
		mult, u = 1<<20, u[:len(u)-1]
	case strings.HasSuffix(u, "G"):
		mult, u = 1<<30, u[:len(u)-1]
	}
	n, err := strconv.ParseUint(u, 10, 64)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

// ThreadResult summarizes one thread's execution.
type ThreadResult struct {
	Name   string
	Ops    uint64
	Cycles sim.Cycles
}

// Result is a completed run.
type Result struct {
	EndCycles sim.Cycles
	Threads   []ThreadResult
	Report    machine.Report
}

// Run executes the program on a system built and run by m, which
// attaches its fault injector and telemetry recorder, and returns
// per-thread and system results.
func Run(p *Program, m *machine.Meter) *Result {
	cfg := machine.G1Config(1)
	if p.Gen == 2 {
		cfg = machine.G2Config(1)
	}
	cfg.PMDIMMs = p.DIMMs
	cfg.Prefetch = p.Prefetch
	maxCore := 0
	for _, t := range p.Threads {
		if t.Core > maxCore {
			maxCore = t.Core
		}
	}
	cfg.Cores = maxCore + 1
	sys := m.System(cfg)

	// Lay the regions out with guard gaps.
	bases := map[string]mem.Addr{}
	sizes := map[string]uint64{}
	var pmOff, dramOff mem.Addr
	dramOff = 1 << 20
	for _, r := range p.Regions {
		if r.PM {
			bases[r.Name] = mem.PMBase + pmOff
			pmOff += mem.Addr(r.Size) + (1 << 20)
		} else {
			bases[r.Name] = dramOff
			dramOff += mem.Addr(r.Size) + (1 << 20)
		}
		sizes[r.Name] = r.Size
	}

	res := &Result{}
	res.Threads = make([]ThreadResult, len(p.Threads))
	for i := range p.Threads {
		decl := p.Threads[i]
		slot := &res.Threads[i]
		slot.Name = decl.Name
		rng := sim.NewRand(uint64(0xC0FFEE + i))
		sys.Go(decl.Name, decl.Core, decl.Remote, func(t *machine.Thread) {
			st := &threadState{
				rng:  rng,
				seq:  map[string]mem.Addr{},
				last: map[string]mem.Addr{},
			}
			execBody(t, st, decl.Body, bases, sizes)
			slot.Ops = t.Ops()
			slot.Cycles = t.Now()
		})
	}
	res.EndCycles = m.Run(sys)
	res.Report = sys.Report()
	return res
}

type threadState struct {
	rng  *sim.Rand
	seq  map[string]mem.Addr
	last map[string]mem.Addr
}

// addr resolves a region/mode pair to a cacheline address.
func (st *threadState) addr(region, mode string, base mem.Addr, size uint64) mem.Addr {
	lines := size / mem.CachelineSize
	if lines == 0 {
		lines = 1
	}
	switch mode {
	case "rand":
		a := base + mem.Addr(st.rng.Uint64()%lines)*mem.CachelineSize
		st.last[region] = a
		return a
	case "last":
		if a, ok := st.last[region]; ok {
			return a
		}
		st.last[region] = base
		return base
	default: // seq
		cur := st.seq[region]
		a := base + cur
		st.seq[region] = (cur + mem.CachelineSize) % mem.Addr(lines*mem.CachelineSize)
		st.last[region] = a
		return a
	}
}

func execBody(t *machine.Thread, st *threadState, body []Stmt, bases map[string]mem.Addr, sizes map[string]uint64) {
	for i := range body {
		s := &body[i]
		if s.Op == "" { // loop
			for n := 0; n < s.Count; n++ {
				execBody(t, st, s.Body, bases, sizes)
			}
			continue
		}
		switch s.Op {
		case "sfence":
			t.SFence()
		case "mfence":
			t.MFence()
		case "compute":
			t.Compute(sim.Cycles(s.N))
		default:
			a := st.addr(s.Region, s.Mode, bases[s.Region], sizes[s.Region])
			switch s.Op {
			case "load":
				t.Load(a)
			case "loaddep":
				t.LoadDep(a)
			case "store":
				t.Store(a)
			case "ntstore":
				t.NTStore(a)
			case "clwb":
				t.CLWB(a)
			case "clflush":
				t.CLFlushOpt(a)
			}
		}
	}
}
