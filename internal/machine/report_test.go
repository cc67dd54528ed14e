package machine

import (
	"strings"
	"testing"

	"optanesim/internal/mem"
)

func TestReportCollectsActivity(t *testing.T) {
	sys := MustNewSystem(G1Config(1))
	sys.Go("t", 0, false, func(th *Thread) {
		for i := 0; i < 200; i++ {
			a := mem.PMBase + mem.Addr(i*64)
			th.LoadDep(a)
			th.LoadDep(a) // second access: L1 hit
			th.Store(a)
			th.CLWB(a)
			th.SFence()
		}
		th.LoadDep(mem.Addr(1 << 20)) // a DRAM access too
	})
	sys.Run()
	r := sys.Report()
	if r.L1Hits == 0 || r.L1Misses == 0 {
		t.Fatalf("L1 stats empty: %+v", r)
	}
	if r.PM.IMCWriteBytes == 0 || r.PM.MediaReadBytes == 0 {
		t.Fatal("PM traffic missing from report")
	}
	if r.DRAM.DemandReadBytes == 0 {
		t.Fatal("DRAM traffic missing from report")
	}
	if len(r.ReadBufferLen) != 1 || r.ReadBufferLen[0] == 0 {
		t.Fatalf("read-buffer occupancy missing: %v", r.ReadBufferLen)
	}
	if r.AITHitRatio[0] <= 0 {
		t.Fatal("AIT ratio missing")
	}
	out := r.String()
	for _, want := range []string{"caches:", "PM:", "DIMM 0:", "prefetch proposals"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestFlushRunaheadBounded(t *testing.T) {
	// A fence-free stream of dirty-line flushes must be throttled by the
	// bounded flush pipeline (the core cannot queue unlimited WPQ work).
	sys := MustNewSystem(G1Config(1))
	var elapsed int64
	const n = 3000
	sys.Go("t", 0, false, func(th *Thread) {
		for i := 0; i < n; i++ {
			a := mem.PMBase + mem.Addr(i*256)
			th.Store(a)
			th.CLWB(a)
		}
		elapsed = int64(th.Now())
	})
	sys.Run()
	perFlush := elapsed / n
	// Each 64 B flush allocates a fresh XPLine in the write buffer and
	// must eventually pay the eviction-bound drain (~200+ cycles).
	if perFlush < 150 {
		t.Fatalf("flush stream ran ahead of the write path: %d cycles/flush", perFlush)
	}
}

func TestAVXCopySerializesMediaReads(t *testing.T) {
	sys := MustNewSystem(G1Config(1))
	var copyCost, loadCost int64
	sys.Go("t", 0, false, func(th *Thread) {
		before := th.Now()
		th.LoadDep(mem.PMBase + 1<<21)
		loadCost = int64(th.Now() - before)

		before = th.Now()
		th.AVXCopy(mem.PMBase+1<<22, 4096)
		copyCost = int64(th.Now() - before)
	})
	sys.Run()
	// The copy reads four lines in a dependent chain: more than one
	// media-read latency, even though three of them hit the read buffer.
	if copyCost <= loadCost {
		t.Fatalf("AVX copy (%d) should cost more than one load (%d)", copyCost, loadCost)
	}
	if copyCost > 4*loadCost {
		t.Fatalf("AVX copy (%d) should benefit from read-buffer hits, not pay 4 full reads (%d each)", copyCost, loadCost)
	}
}

func TestEADRDisablesFlushTraffic(t *testing.T) {
	cfg := G2Config(1)
	cfg.CPU.EADR = true
	sys := MustNewSystem(cfg)
	sys.Go("t", 0, false, func(th *Thread) {
		a := mem.PMBase + 4096
		th.Store(a)
		th.CLWB(a)
		th.SFence()
	})
	sys.Run()
	if sys.PMCounters().IMCWriteBytes != 0 {
		t.Fatal("eADR clwb still generated WPQ traffic")
	}
}
