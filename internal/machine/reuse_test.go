package machine

import (
	"fmt"
	"testing"

	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

// snapOp is one step of a randomized workload, generated host-side so
// every execution path replays the exact same stream.
type snapOp struct {
	kind int // 0 load, 1 loadDep, 2 store, 3 ntstore, 4 clwb, 5 clflushopt, 6 sfence, 7 mfence, 8 compute, 9 clock sample
	addr mem.Addr
	n    sim.Cycles
}

// genSnapOps builds a deterministic random op mix touching PM and DRAM.
func genSnapOps(seed uint64, n int) []snapOp {
	rng := sim.NewRand(seed)
	ops := make([]snapOp, 0, n)
	for i := 0; i < n; i++ {
		op := snapOp{kind: rng.Intn(10)}
		region := mem.Addr(0)
		if rng.Intn(3) > 0 { // 2/3 PM
			region = mem.PMBase
		}
		op.addr = region + mem.Addr(rng.Intn(1<<14))*mem.CachelineSize
		op.n = sim.Cycles(1 + rng.Intn(50))
		ops = append(ops, op)
	}
	return ops
}

// applySnapOps runs ops on t and returns the clock samples its sample
// ops took.
func applySnapOps(t *Thread, ops []snapOp) []sim.Cycles {
	var samples []sim.Cycles
	for _, op := range ops {
		switch op.kind {
		case 0:
			t.Load(op.addr)
		case 1:
			t.LoadDep(op.addr)
		case 2:
			t.Store(op.addr)
		case 3:
			t.NTStore(op.addr)
		case 4:
			t.CLWB(op.addr)
		case 5:
			t.CLFlushOpt(op.addr)
		case 6:
			t.SFence()
		case 7:
			t.MFence()
		case 8:
			t.Compute(op.n)
		case 9:
			samples = append(samples, t.Now())
		}
	}
	return samples
}

// snapOutcome is everything a run path must reproduce exactly.
type snapOutcome struct {
	end     sim.Cycles
	pm      string
	dram    string
	threads []string
}

func runOutcome(end sim.Cycles, s *System, threads []*Thread, samples [][]sim.Cycles) snapOutcome {
	o := snapOutcome{
		end:  end,
		pm:   fmt.Sprintf("%+v", s.PMCounters()),
		dram: fmt.Sprintf("%+v", s.DRAMCounters()),
	}
	for i, t := range threads {
		o.threads = append(o.threads,
			fmt.Sprintf("now=%d ops=%d samples=%v", t.Now(), t.Ops(), samples[i]))
	}
	return o
}

func (o snapOutcome) diff(other snapOutcome) string {
	if o.end != other.end {
		return fmt.Sprintf("end cycles %d != %d", o.end, other.end)
	}
	if o.pm != other.pm {
		return fmt.Sprintf("PM counters\n  %s\n  %s", o.pm, other.pm)
	}
	if o.dram != other.dram {
		return fmt.Sprintf("DRAM counters\n  %s\n  %s", o.dram, other.dram)
	}
	for i := range o.threads {
		if o.threads[i] != other.threads[i] {
			return fmt.Sprintf("thread %d\n  %s\n  %s", i, o.threads[i], other.threads[i])
		}
	}
	return ""
}

// goSnapOps registers one thread per op stream, thread i on core i, and
// runs them, returning the outcome.
func goSnapOps(s *System, ops [][]snapOp) snapOutcome {
	th := make([]*Thread, len(ops))
	samples := make([][]sim.Cycles, len(ops))
	for i := range ops {
		i := i
		th[i] = s.Go(fmt.Sprintf("w%d", i), i, false, func(t *Thread) { samples[i] = applySnapOps(t, ops[i]) })
	}
	return runOutcome(s.Run(), s, th, samples)
}

// TestReusingBuildMatchesFresh is the donor-build determinism property
// every fig2/fig3/fig13 cell rests on: for randomized op mixes across
// generations, DIMM counts and thread counts, a system built by
// newSystemReusing into a donor that already ran a different op mix
// produces byte-for-byte the outcome of a fresh build — identical end
// cycles, traffic counters, per-thread clocks (final and sampled
// mid-run) and op counts — and so does a second build into that
// system. A donor of the other generation, whose cache geometry differs
// at every level, is ignored with the same outcome.
func TestReusingBuildMatchesFresh(t *testing.T) {
	cases := []struct {
		name       string
		cfg, other Config
		dimms      int
		threads    int
		seed       uint64
	}{
		{"G1-1dimm-1t", G1Config(1), G2Config(1), 1, 1, 101},
		{"G1-6dimm-2t", G1Config(2), G2Config(2), 6, 2, 202},
		{"G2-1dimm-1t", G2Config(1), G1Config(1), 1, 1, 303},
		{"G2-6dimm-3t", G2Config(3), G1Config(3), 6, 3, 404},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg, other := tc.cfg, tc.other
			cfg.PMDIMMs, other.PMDIMMs = tc.dimms, tc.dimms
			ops := make([][]snapOp, tc.threads)
			dirt := make([][]snapOp, tc.threads)
			for i := range ops {
				ops[i] = genSnapOps(tc.seed+uint64(i), 3000)
				dirt[i] = genSnapOps(tc.seed+100+uint64(i), 3000)
			}
			want := goSnapOps(MustNewSystem(cfg), ops)

			donor := MustNewSystem(cfg)
			goSnapOps(donor, dirt)
			reused := mustReuse(t, cfg, donor)
			if reused.l3 != donor.l3 || reused.cores[0].L1 != donor.cores[0].L1 || reused.cores[0].L2 != donor.cores[0].L2 {
				t.Fatal("same-geometry donor's cache storage was not reused")
			}
			if d := goSnapOps(reused, ops).diff(want); d != "" {
				t.Errorf("build into a dirtied donor diverged from a fresh build: %s", d)
			}
			// The finished system is the next cell's donor, as in a sweep.
			again := mustReuse(t, cfg, reused)
			if d := goSnapOps(again, ops).diff(want); d != "" {
				t.Errorf("second build into recycled storage diverged from a fresh build: %s", d)
			}

			foreign := MustNewSystem(other)
			goSnapOps(foreign, dirt)
			built := mustReuse(t, cfg, foreign)
			if built.l3 == foreign.l3 || built.cores[0].L1 == foreign.cores[0].L1 || built.cores[0].L2 == foreign.cores[0].L2 {
				t.Fatal("other generation's cache storage was reused")
			}
			if d := goSnapOps(built, ops).diff(want); d != "" {
				t.Errorf("build with an other-generation donor diverged from a fresh build: %s", d)
			}
		})
	}
}

// mustReuse is newSystemReusing for the known-good test configurations.
func mustReuse(t *testing.T, cfg Config, donor *System) *System {
	t.Helper()
	s, err := newSystemReusing(cfg, donor)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
