package machine

import (
	"testing"

	"optanesim/internal/cache"
	"optanesim/internal/mem"
	"optanesim/internal/prefetch"
	"optanesim/internal/sim"
	"optanesim/internal/telemetry"
)

// walkConfig is a one-core G1 testbed with the prefetchers off, so every
// line in the hierarchy got there by a demand access of the test.
func walkConfig() Config {
	cfg := G1Config(1)
	cfg.Prefetch = prefetch.None()
	return cfg
}

// wayBytes is the address stride between lines that share a set of a
// level built from c: one way's worth of bytes.
func wayBytes(c cache.Config) mem.Addr { return mem.Addr(c.Size / c.Assoc) }

// cacheLevels lists the levels a thread on core 0 sees, nearest first.
func cacheLevels(sys *System) []*cache.Cache {
	return []*cache.Cache{sys.Core(0).L1, sys.Core(0).L2, sys.l3}
}

// TestHierarchyWalk pins which level serves a dependent load, what the
// load costs, which levels it fills and what the breakdown charges it
// to. Loads of conflicting lines push the target out of the levels above
// the one that should serve it: a stride of one L1 way shares only the
// target's L1 set, one L2 way its L1 and L2 sets, and one L3 way its set
// at every level.
func TestHierarchyWalk(t *testing.T) {
	cpu := walkConfig().CPU
	target := mem.PMBase + 1<<20
	hitComp := []string{"l1-hit", "l2-hit", "l3-hit"}
	for _, tc := range []struct {
		name   string
		stride mem.Addr
		n      int // conflicting loads
		serve  int // index of the serving level; 3 is memory
	}{
		{"L1", 0, 0, 0},
		{"L2", wayBytes(cpu.L1), cpu.L1.Assoc, 1},
		{"L3", wayBytes(cpu.L2), cpu.L2.Assoc, 2},
		{"memory", wayBytes(cpu.L3), cpu.L2.Assoc, 3}, // the most ways of any level
	} {
		t.Run(tc.name, func(t *testing.T) {
			prime := func(th *Thread) {
				th.LoadDep(target)
				for k := 1; k <= tc.n; k++ {
					th.LoadDep(target + mem.Addr(k)*tc.stride)
				}
			}
			var want sim.Cycles
			if tc.serve < 3 {
				want = []sim.Cycles{cpu.L1.HitCycles, cpu.L2.HitCycles, cpu.L3.HitCycles}[tc.serve]
			} else {
				// A miss at every level pays the L3 lookup, then the PM
				// read, which a twin system in the same state measures
				// at the controller.
				twin := MustNewSystem(walkConfig())
				twin.Go("t", 0, false, func(th *Thread) {
					prime(th)
					at := th.Now() + cpu.L3.HitCycles
					want = cpu.L3.HitCycles + twin.pmc.Read(at, target, true) - at
				})
				twin.Run()
			}

			sys := MustNewSystem(walkConfig())
			rec := telemetry.NewRecorder("walk", telemetry.Config{Breakdown: true})
			sys.AttachTelemetry(rec)
			levels := cacheLevels(sys)
			var got sim.Cycles
			sys.Go("t", 0, false, func(th *Thread) {
				prime(th)
				for i, c := range levels {
					if held := c.Peek(target) != nil; held != (i >= tc.serve) {
						t.Fatalf("before the load, %s holds the line: %v", c.Config().Name, held)
					}
				}
				th.SetTenant("probe")
				before := th.Now()
				th.LoadDep(target)
				got = th.Now() - before
			})
			sys.Run()

			if got != want {
				t.Errorf("load took %d cycles, want %d", got, want)
			}
			for _, c := range levels[:tc.serve] {
				if c.Peek(target) == nil {
					t.Errorf("the load did not fill %s", c.Config().Name)
				}
			}
			var probe *telemetry.TenantBreakdown
			bd := rec.Snapshot().Breakdown
			for i := range bd.Tenants {
				if bd.Tenants[i].Tenant == "probe" {
					probe = &bd.Tenants[i]
				}
			}
			if probe == nil || len(probe.Classes) != 1 || probe.Classes[0].Name != "load" ||
				probe.Classes[0].Hist.Count() != 1 || probe.Classes[0].Hist.Sum() != got {
				t.Fatalf("breakdown did not record the load as one %d-cycle op: %+v", got, probe)
			}
			charged := map[string]bool{}
			for _, ch := range probe.Op {
				charged[ch.Name] = true
			}
			for i, name := range hitComp {
				if charged[name] != (i == min(tc.serve, 2)) {
					t.Errorf("charged to %s: %v (components %v)", name, charged[name], charged)
				}
			}
		})
	}
}

// TestHierarchyWriteBack pins the dirty write-back cascade: a dirty line
// pushed out of L1 is dirty in L2, and one pushed out of the L3 reaches
// the PM controller as a write. A store fills only L1 and the
// conflicting loads are clean, so the stored line is the only
// write-back.
func TestHierarchyWriteBack(t *testing.T) {
	cpu := walkConfig().CPU
	a := mem.PMBase + 1<<20
	for _, tc := range []struct {
		name   string
		stride mem.Addr
		n      int    // conflicting loads
		inL2   bool   // the line ends dirty in L2
		writes uint64 // PM write bytes the loads cause
	}{
		{"L1 to L2", wayBytes(cpu.L1), cpu.L1.Assoc, true, 0},
		// The line enters each lower level as its most recent entry, so
		// every level's ways turn over once.
		{"L3 to memory", wayBytes(cpu.L3), cpu.L1.Assoc + cpu.L2.Assoc + cpu.L3.Assoc, false, mem.CachelineSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := MustNewSystem(walkConfig())
			sys.Go("t", 0, false, func(th *Thread) {
				th.Store(a)
				sys.ResetCounters()
				for k := 1; k <= tc.n; k++ {
					th.LoadDep(a + mem.Addr(k)*tc.stride)
				}
			})
			sys.Run()
			levels := cacheLevels(sys)
			if levels[0].Peek(a) != nil || levels[2].Peek(a) != nil {
				t.Error("the stored line is still in L1 or the L3")
			}
			if l := levels[1].Peek(a); (l != nil && l.Dirty) != tc.inL2 {
				t.Errorf("L2 holds the line %+v, want it dirty there: %v", l, tc.inL2)
			}
			if got := sys.PMCounters().IMCWriteBytes; got != tc.writes {
				t.Errorf("PM controller saw %d write bytes, want %d", got, tc.writes)
			}
		})
	}
}
