package imc

import (
	"testing"

	"optanesim/internal/mem"
	"optanesim/internal/sim"
	"optanesim/internal/trace"
)

// stubDev is a device with fixed service times for controller tests.
type stubDev struct {
	readCycles  sim.Cycles
	writeLand   sim.Cycles // landing delay after arrival
	rapWindow   sim.Cycles
	c           trace.Counters
	reads       []mem.Addr
	writes      []mem.Addr
	writeArrive []sim.Cycles
}

func (s *stubDev) ReadLine(now sim.Cycles, addr mem.Addr, demand bool) sim.Cycles {
	s.reads = append(s.reads, addr)
	return now + s.readCycles
}

func (s *stubDev) WriteLine(now sim.Cycles, addr mem.Addr) sim.Cycles {
	s.writes = append(s.writes, addr)
	s.writeArrive = append(s.writeArrive, now)
	return now + s.writeLand
}

func (s *stubDev) RAPWindow() sim.Cycles     { return s.rapWindow }
func (s *stubDev) Counters() *trace.Counters { return &s.c }

func newStub() *stubDev {
	return &stubDev{readCycles: 100, writeLand: 50, rapWindow: 1000}
}

func TestReadPath(t *testing.T) {
	dev := newStub()
	c := NewController(DefaultConfig(), dev)
	done := c.Read(0, mem.PMBase, true)
	cfg := DefaultConfig()
	want := cfg.RPQCycles + 100 + cfg.BusCycles
	if done != want {
		t.Fatalf("read done = %d, want %d", done, want)
	}
}

func TestWriteAcceptIsADR(t *testing.T) {
	dev := newStub()
	cfg := DefaultConfig()
	c := NewController(cfg, dev)
	accept, landed := c.Write(0, mem.PMBase)
	if accept != cfg.WPQAcceptCycles {
		t.Fatalf("accept = %d, want %d (WPQ acceptance, not completion)", accept, cfg.WPQAcceptCycles)
	}
	if landed <= accept {
		t.Fatal("landing must follow acceptance")
	}
}

func TestWPQBackpressure(t *testing.T) {
	dev := newStub()
	dev.writeLand = 10000 // drain very slowly
	cfg := DefaultConfig()
	cfg.WPQDepth = 4
	c := NewController(cfg, dev)
	var accepts []sim.Cycles
	for i := 0; i < 6; i++ {
		a, _ := c.Write(0, mem.PMBase+mem.Addr(i*64))
		accepts = append(accepts, a)
	}
	// The first WPQDepth writes accept promptly; later ones wait for
	// slots to land.
	if accepts[3] > 10*cfg.WPQAcceptCycles {
		t.Fatalf("write within depth was delayed: %v", accepts)
	}
	if accepts[4] < 10000 {
		t.Fatalf("write beyond depth accepted too early: %v", accepts)
	}
	if accepts[5] < accepts[4] {
		t.Fatal("acceptance went backwards")
	}
}

func TestRAPHazardStallsRead(t *testing.T) {
	dev := newStub()
	cfg := DefaultConfig()
	c := NewController(cfg, dev)
	line := mem.PMBase + 512
	accept, _ := c.Write(0, line)

	// Read shortly after the flush: stalls until accept + window.
	done := c.Read(accept+10, line, true)
	minDone := accept + dev.rapWindow + cfg.RPQCycles + dev.readCycles
	if done < minDone {
		t.Fatalf("read did not stall on hazard: done=%d want>=%d", done, minDone)
	}
	// Read long after: no stall.
	late := accept + dev.rapWindow + 5000
	done = c.Read(late, line, true)
	if done != late+cfg.RPQCycles+dev.readCycles+cfg.BusCycles {
		t.Fatalf("expired hazard still stalled: %d", done)
	}
	// Other lines are unaffected.
	done = c.Read(accept+10, line+mem.CachelineSize, true)
	if done >= minDone {
		t.Fatal("hazard leaked to a neighboring line")
	}
}

func TestInterleaving(t *testing.T) {
	dev0, dev1 := newStub(), newStub()
	cfg := DefaultConfig()
	c := NewController(cfg, dev0, dev1)
	// 4 KB interleave granule: consecutive granules alternate devices.
	c.Read(0, mem.PMBase, true)
	c.Read(0, mem.PMBase+4096, true)
	c.Read(0, mem.PMBase+8192, true)
	if len(dev0.reads) != 2 || len(dev1.reads) != 1 {
		t.Fatalf("interleave split %d/%d, want 2/1", len(dev0.reads), len(dev1.reads))
	}
	if len(c.Devices()) != 2 {
		t.Fatal("Devices() wrong")
	}
}

func TestCountersAggregate(t *testing.T) {
	dev0, dev1 := newStub(), newStub()
	dev0.c.MediaReadBytes = 100
	dev1.c.MediaReadBytes = 23
	c := NewController(DefaultConfig(), dev0, dev1)
	if got := c.Counters().MediaReadBytes; got != 123 {
		t.Fatalf("aggregate = %d, want 123", got)
	}
}

func TestDrainOrdering(t *testing.T) {
	dev := newStub()
	cfg := DefaultConfig()
	c := NewController(cfg, dev)
	c.Write(0, mem.PMBase)
	c.Write(0, mem.PMBase+64)
	if len(dev.writeArrive) != 2 {
		t.Fatal("writes did not reach the device")
	}
	if dev.writeArrive[1] < dev.writeArrive[0]+cfg.DrainGapCycles {
		t.Fatalf("WPQ drains violated command-bus spacing: %v", dev.writeArrive)
	}
}

func TestHazardPruning(t *testing.T) {
	dev := newStub()
	dev.rapWindow = 1
	c := NewController(DefaultConfig(), dev)
	// Write a lot of distinct lines with tiny hazard windows and read
	// far in the future; the hazard map must not grow unboundedly.
	for i := 0; i < 1<<16; i++ {
		c.Write(sim.Cycles(i*100), mem.PMBase+mem.Addr(i*64))
	}
	if c.hazards.Len() >= 1<<16 {
		t.Fatalf("hazard table never pruned: %d entries", c.hazards.Len())
	}
}

// TestHazardLifecycle pins which read-after-persist hazards the
// controller holds at each moment. Each check observes them through a
// rewound read: one issued earlier in simulated time than the controller
// has already seen, which stalls only while the line's entry is held. A
// read that finds its window closed deletes the entry, an unread entry
// stays, and the prune drops exactly the windows closed by the latest
// time seen.
func TestHazardLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	x := mem.PMBase
	// unstalled is a read's completion when issued at at with no hazard;
	// stalled is its completion when it waits for a window opened at
	// accept.
	unstalled := func(dev *stubDev, at sim.Cycles) sim.Cycles {
		return at + cfg.RPQCycles + dev.readCycles + cfg.BusCycles
	}
	stalled := func(dev *stubDev, accept sim.Cycles) sim.Cycles {
		return unstalled(dev, accept+dev.rapWindow)
	}

	t.Run("closed-window read deletes", func(t *testing.T) {
		dev := newStub()
		c := NewController(cfg, dev)
		accept, _ := c.Write(0, x)
		c.Read(accept+dev.rapWindow+5000, x, true)
		if done := c.Read(accept+10, x, true); done != unstalled(dev, accept+10) {
			t.Fatalf("rewound read done at %d, want %d: the closed window's entry survived its read", done, unstalled(dev, accept+10))
		}
	})
	t.Run("unread entry stays", func(t *testing.T) {
		dev := newStub()
		c := NewController(cfg, dev)
		accept, _ := c.Write(0, x)
		c.Read(accept+dev.rapWindow+5000, x+mem.CachelineSize, true)
		if done := c.Read(accept+10, x, true); done != stalled(dev, accept) {
			t.Fatalf("rewound read done at %d, want %d", done, stalled(dev, accept))
		}
	})
	t.Run("prune drops closed windows", func(t *testing.T) {
		dev := newStub()
		c := NewController(cfg, dev)
		first, _ := c.Write(0, x)
		// 1<<15 writes in all: the last one triggers the prune.
		var last sim.Cycles
		lastLine := x
		for i := 1; i < 1<<15; i++ {
			lastLine = x + mem.Addr(i*mem.CachelineSize)
			last, _ = c.Write(sim.Cycles(i*100), lastLine)
		}
		if done := c.Read(first+10, x, true); done != unstalled(dev, first+10) {
			t.Fatalf("rewound read of the first line done at %d, want %d: its closed window survived the prune", done, unstalled(dev, first+10))
		}
		if done := c.Read(last+10, lastLine, true); done != stalled(dev, last) {
			t.Fatalf("rewound read of the last line done at %d, want %d: its open window was pruned", done, stalled(dev, last))
		}
	})
}

func TestNoDevicesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewController with no devices did not panic")
		}
	}()
	NewController(DefaultConfig())
}
