package xpline

import (
	"testing"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
)

func TestDirectTouchesAllLines(t *testing.T) {
	sys := machine.MustNewSystem(machine.G1Config(1))
	sys.Go("t", 0, false, func(th *machine.Thread) {
		Direct(th, mem.PMBase+8192)
	})
	sys.Run()
	c := sys.PMCounters()
	if c.DemandReadBytes != mem.XPLineSize {
		t.Fatalf("direct read demanded %d bytes, want 256", c.DemandReadBytes)
	}
	// The block must be flushed afterwards: a second visit re-reads it.
	sys2 := machine.MustNewSystem(machine.G1Config(1))
	sys2.Go("t", 0, false, func(th *machine.Thread) {
		Direct(th, mem.PMBase+8192)
		sys2.ResetCounters()
		Direct(th, mem.PMBase+8192)
	})
	sys2.Run()
	if sys2.PMCounters().IMCReadBytes == 0 {
		t.Fatal("block not flushed between visits")
	}
}

func TestRedirectedAvoidsPrefetchers(t *testing.T) {
	run := func(optimized bool) uint64 {
		sys := machine.MustNewSystem(machine.G1Config(1))
		sys.Go("t", 0, false, func(th *machine.Thread) {
			for i := 0; i < 50; i++ {
				block := mem.PMBase + mem.Addr(i*7919*mem.XPLineSize)
				if optimized {
					Redirected(th, block, mem.DRAMBase)
				} else {
					Direct(th, block)
				}
			}
		})
		sys.Run()
		return sys.Core(0).PF.Issued()
	}
	if got := run(true); got != 0 {
		t.Fatalf("redirected path triggered %d prefetch proposals", got)
	}
	if got := run(false); got == 0 {
		t.Fatal("direct path should engage the prefetchers")
	}
}

func TestRedirectedStagingStaysCached(t *testing.T) {
	sys := machine.MustNewSystem(machine.G1Config(1))
	sys.Go("t", 0, false, func(th *machine.Thread) {
		Redirected(th, mem.PMBase+4096, mem.DRAMBase)
		sys.ResetCounters()
		Redirected(th, mem.PMBase+123*256, mem.DRAMBase)
	})
	sys.Run()
	// The second visit's staging reads must be cache hits: no DRAM
	// demand misses beyond the copy's stores.
	if sys.DRAMCounters().IMCReadBytes != 0 {
		t.Fatalf("staging buffer thrashed: %d DRAM iMC read bytes", sys.DRAMCounters().IMCReadBytes)
	}
}
