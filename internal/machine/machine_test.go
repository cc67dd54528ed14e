package machine

import (
	"testing"
	"testing/quick"

	"optanesim/internal/mem"
	"optanesim/internal/prefetch"
	"optanesim/internal/sim"
)

func g1() *System { return MustNewSystem(G1Config(2)) }

func TestColdLoadWarmLoad(t *testing.T) {
	sys := g1()
	var cold, warm sim.Cycles
	sys.Go("t", 0, false, func(th *Thread) {
		a := mem.PMBase + 4096
		before := th.Now()
		th.LoadDep(a)
		cold = th.Now() - before
		before = th.Now()
		th.LoadDep(a)
		warm = th.Now() - before
	})
	sys.Run()
	if cold < 500 {
		t.Fatalf("cold PM load took %d cycles; expected a media read (~800)", cold)
	}
	if warm > 20 {
		t.Fatalf("warm load took %d cycles; expected an L1 hit", warm)
	}
}

func TestDRAMFasterThanPM(t *testing.T) {
	sys := g1()
	var dram, pm sim.Cycles
	sys.Go("t", 0, false, func(th *Thread) {
		before := th.Now()
		th.LoadDep(mem.Addr(1 << 20))
		dram = th.Now() - before
		before = th.Now()
		th.LoadDep(mem.PMBase + (1 << 20))
		pm = th.Now() - before
	})
	sys.Run()
	if dram >= pm {
		t.Fatalf("DRAM load (%d) not faster than PM load (%d)", dram, pm)
	}
}

func TestStoreIsCheapAndAsync(t *testing.T) {
	sys := g1()
	var cost sim.Cycles
	sys.Go("t", 0, false, func(th *Thread) {
		before := th.Now()
		th.Store(mem.PMBase + 64)
		cost = th.Now() - before
	})
	sys.Run()
	if cost > 50 {
		t.Fatalf("store cost %d cycles; stores must not wait for memory", cost)
	}
}

func TestPersistBarrierWaitsForWPQAccept(t *testing.T) {
	sys := g1()
	var barrier sim.Cycles
	sys.Go("t", 0, false, func(th *Thread) {
		a := mem.PMBase + 128
		th.Store(a)
		before := th.Now()
		th.CLWB(a)
		th.SFence()
		barrier = th.Now() - before
	})
	sys.Run()
	// The fence waits for ADR acceptance (~WPQAcceptCycles), not for
	// the media write (which would be ~10x more).
	if barrier < 100 || barrier > 600 {
		t.Fatalf("persistence barrier cost %d cycles; want ADR-acceptance scale", barrier)
	}
}

func TestCLWBCleanLineIsFree(t *testing.T) {
	sys := g1()
	var writes uint64
	sys.Go("t", 0, false, func(th *Thread) {
		a := mem.PMBase + 192
		th.LoadDep(a) // clean line in cache
		sys.ResetCounters()
		th.CLWB(a)
		th.SFence()
		writes = sys.PMCounters().IMCWriteBytes
	})
	sys.Run()
	if writes != 0 {
		t.Fatalf("clwb of a clean line wrote %d bytes", writes)
	}
}

func TestG1CLWBInvalidatesEventually(t *testing.T) {
	sys := g1()
	var reloads uint64
	sys.Go("t", 0, false, func(th *Thread) {
		a := mem.PMBase + 256
		th.Store(a)
		th.CLWB(a)
		th.SFence()
		// Burn enough ops for the delayed invalidation to land.
		for i := 0; i < 10; i++ {
			th.Compute(10)
		}
		sys.ResetCounters()
		th.LoadDep(a)
		reloads = sys.PMCounters().IMCReadBytes
	})
	sys.Run()
	if reloads == 0 {
		t.Fatal("on G1, a flushed line must eventually be evicted and reloaded from the DIMM")
	}
}

func TestG2CLWBKeepsLineCached(t *testing.T) {
	sys := MustNewSystem(G2Config(1))
	var reloads uint64
	sys.Go("t", 0, false, func(th *Thread) {
		a := mem.PMBase + 256
		th.Store(a)
		th.CLWB(a)
		th.SFence()
		for i := 0; i < 10; i++ {
			th.Compute(10)
		}
		sys.ResetCounters()
		th.LoadDep(a)
		reloads = sys.PMCounters().IMCReadBytes
	})
	sys.Run()
	if reloads != 0 {
		t.Fatal("on G2, clwb must keep the line cached (§3.5)")
	}
}

func TestMFenceOrdersLoads(t *testing.T) {
	// Reading a just-persisted line after mfence must pay the RAP
	// stall; after sfence within the bypass window it must not.
	lat := func(useMFence bool) sim.Cycles {
		cfg := G1Config(1)
		cfg.Prefetch = prefetch.None()
		sys := MustNewSystem(cfg)
		var got sim.Cycles
		sys.Go("t", 0, false, func(th *Thread) {
			a := mem.PMBase + 320
			th.LoadDep(a)
			th.Store(a)
			th.CLWB(a)
			if useMFence {
				th.MFence()
			} else {
				th.SFence()
			}
			before := th.Now()
			th.LoadDep(a)
			got = th.Now() - before
		})
		sys.Run()
		return got
	}
	m, s := lat(true), lat(false)
	if m < 1000 {
		t.Fatalf("mfence read-after-persist took only %d cycles; expected a hazard stall", m)
	}
	if s > 50 {
		t.Fatalf("sfence d=0 read took %d cycles; expected the cache-bypass hit", s)
	}
}

func TestNTStoreBypassesCache(t *testing.T) {
	sys := g1()
	var imcWrites uint64
	sys.Go("t", 0, false, func(th *Thread) {
		a := mem.PMBase + 448
		th.LoadDep(a)
		th.NTStore(a)
		th.SFence()
		imcWrites = sys.PMCounters().IMCWriteBytes
		// The cached copy must be gone.
		if sys.Core(0).L1.Peek(a) != nil {
			t.Error("nt-store left the line in L1")
		}
	})
	sys.Run()
	if imcWrites != mem.CachelineSize {
		t.Fatalf("nt-store wrote %d iMC bytes, want 64", imcWrites)
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func() (sim.Cycles, uint64) {
		sys := MustNewSystem(G1Config(2))
		rng := sim.NewRand(3)
		for w := 0; w < 4; w++ {
			base := mem.PMBase + mem.Addr(w<<20)
			core := w % 2
			sys.Go("t", core, false, func(th *Thread) {
				for i := 0; i < 500; i++ {
					a := base + mem.Addr(rng.Intn(1000)*64)
					th.LoadDep(a)
					th.Store(a)
					th.CLWB(a)
					th.SFence()
				}
			})
		}
		end := sys.Run()
		return end, sys.PMCounters().MediaReadBytes
	}
	e1, m1 := run()
	e2, m2 := run()
	if e1 != e2 || m1 != m2 {
		t.Fatalf("simulation not deterministic: (%d,%d) vs (%d,%d)", e1, m1, e2, m2)
	}
}

func TestSchedulerInterleavesByTime(t *testing.T) {
	sys := MustNewSystem(G1Config(2))
	var order []int
	sys.Go("slow", 0, false, func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Compute(1000)
			order = append(order, 0)
		}
	})
	sys.Go("fast", 1, false, func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Compute(10)
			order = append(order, 1)
		}
	})
	sys.Run()
	// Both threads tie at t=0 (the slow one wins by registration
	// order), after which the fast thread's remaining ops all complete
	// before the slow thread's second.
	want := []int{0, 1, 1, 1, 0, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("scheduling order %v, want %v", order, want)
		}
	}
}

func TestRemoteNUMAPenalty(t *testing.T) {
	lat := func(remote bool) sim.Cycles {
		sys := MustNewSystem(G1Config(1))
		var got sim.Cycles
		sys.Go("t", 0, remote, func(th *Thread) {
			before := th.Now()
			th.LoadDep(mem.PMBase + 4096)
			got = th.Now() - before
		})
		sys.Run()
		return got
	}
	local, remote := lat(false), lat(true)
	if remote <= local {
		t.Fatalf("remote PM load (%d) not slower than local (%d)", remote, local)
	}
}

func TestHyperthreadSharingInflatesFrontEnd(t *testing.T) {
	run := func(shareCore bool) sim.Cycles {
		sys := MustNewSystem(G1Config(2))
		var got sim.Cycles
		core2 := 1
		if shareCore {
			core2 = 0
		}
		sys.Go("main", 0, false, func(th *Thread) {
			before := th.Now()
			for i := 0; i < 100; i++ {
				th.Compute(100)
			}
			got = th.Now() - before
		})
		sys.Go("sibling", core2, false, func(th *Thread) {
			for i := 0; i < 100; i++ {
				th.Compute(100)
			}
		})
		sys.Run()
		return got
	}
	separate, shared := run(false), run(true)
	if shared <= separate {
		t.Fatalf("hyperthread sharing free: %d vs %d", shared, separate)
	}
}

func TestLoadParallelOverlaps(t *testing.T) {
	sys := g1()
	var seq, par sim.Cycles
	sys.Go("t", 0, false, func(th *Thread) {
		a := mem.PMBase + 1<<20
		b := mem.PMBase + 2<<20
		before := th.Now()
		th.LoadDep(a)
		th.LoadDep(b)
		seq = th.Now() - before

		c := mem.PMBase + 3<<20
		d := mem.PMBase + 4<<20
		before = th.Now()
		th.LoadParallel(c, d)
		par = th.Now() - before
	})
	sys.Run()
	if par >= seq {
		t.Fatalf("parallel loads (%d) not faster than dependent chain (%d)", par, seq)
	}
}

func TestAVXCopyAvoidsPrefetchers(t *testing.T) {
	sys := g1()
	var issued uint64
	sys.Go("t", 0, false, func(th *Thread) {
		before := th.System().Core(0).PF.Issued()
		th.AVXCopy(mem.PMBase+8192, 4096)
		issued = th.System().Core(0).PF.Issued() - before
	})
	sys.Run()
	if issued != 0 {
		t.Fatalf("AVXCopy triggered %d prefetch proposals", issued)
	}
}

func TestCyclesToSeconds(t *testing.T) {
	sys := g1()
	secs := sys.CyclesToSeconds(2_100_000_000)
	if secs < 0.99 || secs > 1.01 {
		t.Fatalf("2.1e9 cycles at 2.1 GHz = %v s, want 1", secs)
	}
}

// Property: a thread's clock never decreases across random op sequences.
func TestQuickClockMonotonic(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		rng := sim.NewRand(seed)
		sys := MustNewSystem(G1Config(1))
		ok := true
		sys.Go("t", 0, false, func(th *Thread) {
			last := th.Now()
			for i := 0; i < int(opsRaw); i++ {
				a := mem.PMBase + mem.Addr(rng.Intn(4096)*64)
				switch rng.Intn(6) {
				case 0:
					th.Load(a)
				case 1:
					th.LoadDep(a)
				case 2:
					th.Store(a)
				case 3:
					th.NTStore(a)
				case 4:
					th.CLWB(a)
				case 5:
					if rng.Intn(2) == 0 {
						th.SFence()
					} else {
						th.MFence()
					}
				}
				if th.Now() < last {
					ok = false
				}
				last = th.Now()
			}
		})
		sys.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
