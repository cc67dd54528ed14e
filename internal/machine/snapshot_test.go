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
	kind int // 0 load, 1 loadDep, 2 store, 3 ntstore, 4 clwb, 5 clflushopt, 6 sfence, 7 mfence, 8 compute, 9 setTag
	addr mem.Addr
	n    sim.Cycles
	tag  string
}

// genSnapOps builds a deterministic random op mix touching PM and DRAM.
func genSnapOps(seed uint64, n int) []snapOp {
	rng := sim.NewRand(seed)
	tags := []string{"", "alpha", "beta"}
	ops := make([]snapOp, 0, n)
	for i := 0; i < n; i++ {
		op := snapOp{kind: rng.Intn(10)}
		region := mem.Addr(0)
		if rng.Intn(3) > 0 { // 2/3 PM
			region = mem.PMBase
		}
		op.addr = region + mem.Addr(rng.Intn(1<<14))*mem.CachelineSize
		op.n = sim.Cycles(1 + rng.Intn(50))
		op.tag = tags[rng.Intn(len(tags))]
		ops = append(ops, op)
	}
	return ops
}

func applySnapOps(t *Thread, ops []snapOp) {
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
			t.SetTag(op.tag)
		}
	}
}

// snapOutcome is everything a run path must reproduce exactly.
type snapOutcome struct {
	end     sim.Cycles
	pm      string
	dram    string
	threads []string
}

func runOutcome(end sim.Cycles, s *System, threads ...*Thread) snapOutcome {
	o := snapOutcome{
		end:  end,
		pm:   fmt.Sprintf("%+v", s.PMCounters()),
		dram: fmt.Sprintf("%+v", s.DRAMCounters()),
	}
	for _, t := range threads {
		o.threads = append(o.threads,
			fmt.Sprintf("now=%d ops=%d alpha=%d beta=%d", t.Now(), t.Ops(),
				t.TagCycles("alpha"), t.TagCycles("beta")))
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

// TestSnapshotForkFidelity is the snapshot/restore determinism property:
// for randomized op mixes across generations, DIMM counts and thread
// counts, continuing a warmed phase — on the original system, on one
// fork, and on a second fork taken after the first already ran — all
// produce byte-for-byte the same outcome: identical end cycles, traffic
// counters, per-thread clocks, op counts and TagCycles.
//
// For a single thread the phased outcome additionally equals the
// straight-through chained run (the shape of every warm-reuse sweep
// family). With several threads it deliberately does not: a phase
// boundary is a barrier, so one thread's early measure ops no longer
// interleave in simulated time with another's late warm ops — both
// orders are valid simulations, but only like-shaped runs are
// comparable, so the multi-thread reference is the phased run on the
// original system.
func TestSnapshotForkFidelity(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		dimms   int
		threads int
		seed    uint64
	}{
		{"G1-1dimm-1t", G1Config(1), 1, 1, 101},
		{"G1-6dimm-2t", G1Config(2), 6, 2, 202},
		{"G2-1dimm-1t", G2Config(1), 1, 1, 303},
		{"G2-6dimm-3t", G2Config(3), 6, 3, 404},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			cfg.PMDIMMs = tc.dimms
			warm := make([][]snapOp, tc.threads)
			measure := make([][]snapOp, tc.threads)
			for i := range warm {
				warm[i] = genSnapOps(tc.seed+uint64(i), 3000)
				measure[i] = genSnapOps(tc.seed+100+uint64(i), 3000)
			}

			// Phased on one system: RunPhase, Snapshot, Continue, Run.
			sysB := MustNewSystem(cfg)
			for i := 0; i < tc.threads; i++ {
				i := i
				sysB.Go(fmt.Sprintf("w%d", i), i, false, func(th *Thread) { applySnapOps(th, warm[i]) })
			}
			sysB.RunPhase()
			snap := sysB.Snapshot()
			thB := make([]*Thread, tc.threads)
			for i := 0; i < tc.threads; i++ {
				i := i
				thB[i] = sysB.Continue(i, func(th *Thread) { applySnapOps(th, measure[i]) })
			}
			want := runOutcome(sysB.Run(), sysB, thB...)

			if tc.threads == 1 {
				// Single thread: phased must equal the straight-through
				// chained run — the identity every warm-reuse sweep
				// family rests on.
				sysA := MustNewSystem(cfg)
				thA := sysA.Go("w0", 0, false, func(th *Thread) {
					applySnapOps(th, warm[0])
					applySnapOps(th, measure[0])
				})
				if d := runOutcome(sysA.Run(), sysA, thA).diff(want); d != "" {
					t.Errorf("straight-through run diverged from phased: %s", d)
				}
			}

			// Two forks from the snapshot, run back to back: each must
			// match, and the first's run must not perturb the second.
			// The first finished fork is recycled, so the second fork is
			// reconstituted into its dirty arrays — recycled storage
			// must be indistinguishable from fresh.
			for f := 0; f < 2; f++ {
				fork := snap.Fork()
				if got, want := fork.CarryThreads(), tc.threads; got != want {
					t.Fatalf("fork carries %d threads, want %d", got, want)
				}
				thF := make([]*Thread, tc.threads)
				for i := 0; i < tc.threads; i++ {
					i := i
					thF[i] = fork.Continue(i, func(th *Thread) { applySnapOps(th, measure[i]) })
				}
				if d := runOutcome(fork.Run(), fork, thF...).diff(want); d != "" {
					t.Errorf("fork %d diverged from phased original: %s", f, d)
				}
				snap.Recycle(fork)
			}

			// The warmed source must also still be forkable after its own
			// continuation ran (snapshot independence from sysB's Run).
			fork := snap.Fork()
			thF := make([]*Thread, tc.threads)
			for i := 0; i < tc.threads; i++ {
				i := i
				thF[i] = fork.Continue(i, func(th *Thread) { applySnapOps(th, measure[i]) })
			}
			if d := runOutcome(fork.Run(), fork, thF...).diff(want); d != "" {
				t.Errorf("late fork diverged from phased original: %s", d)
			}

			// Building a fresh system into a dirtied donor
			// (NewSystemReusing) must be observably identical to a
			// plain fresh build: rerun the whole phased workload on a
			// system recycled from the finished late fork.
			sysR := MustNewSystemReusing(cfg, fork)
			for i := 0; i < tc.threads; i++ {
				i := i
				sysR.Go(fmt.Sprintf("w%d", i), i, false, func(th *Thread) { applySnapOps(th, warm[i]) })
			}
			sysR.RunPhase()
			thR := make([]*Thread, tc.threads)
			for i := 0; i < tc.threads; i++ {
				i := i
				thR[i] = sysR.Continue(i, func(th *Thread) { applySnapOps(th, measure[i]) })
			}
			if d := runOutcome(sysR.Run(), sysR, thR...).diff(want); d != "" {
				t.Errorf("donor-recycled rebuild diverged from fresh build: %s", d)
			}
		})
	}
}
