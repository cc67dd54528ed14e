package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

func small() *Cache {
	// 4 sets x 2 ways of 64 B lines = 512 B.
	return New(Config{Name: "t", Size: 512, Assoc: 2, HitCycles: 4})
}

func TestLookupMissThenHit(t *testing.T) {
	c := small()
	a := mem.Addr(0x1000)
	if c.Lookup(a) != nil {
		t.Fatal("cold lookup hit")
	}
	c.Insert(a, false, false, 0)
	l := c.Lookup(a)
	if l == nil || lineAddr(c, l) != a.Line() {
		t.Fatal("inserted line not found")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d,%d), want (1,1)", hits, misses)
	}
}

// lineAddr returns the address of the line c's frame l holds, read from
// its tag.
func lineAddr(c *Cache, l *Line) mem.Addr {
	for i := range c.ways {
		if &c.ways[i] == l {
			return mem.Addr(c.tags[i] &^ 1)
		}
	}
	panic("frame not in cache")
}

// TestLineFrameSize pins the frame at 32 bytes: two frames per host
// cacheline, so the L3's frame array is half the size a 64-byte frame
// would make it.
func TestLineFrameSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Line{}) = %d, want 32", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Three lines mapping to the same set (stride = nsets*64 = 256).
	a, b, d := mem.Addr(0), mem.Addr(256), mem.Addr(512)
	c.Insert(a, false, false, 0)
	c.Insert(b, false, false, 0)
	c.Lookup(a) // make b the LRU way
	victim, evicted := c.Insert(d, false, false, 0)
	if !evicted || victim.Addr != b {
		t.Fatalf("expected b evicted, got %+v (evicted=%v)", victim, evicted)
	}
	if c.Peek(a) == nil || c.Peek(d) == nil || c.Peek(b) != nil {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestDirtyVictimReported(t *testing.T) {
	c := small()
	c.Insert(0, true, false, 0)
	c.Insert(256, false, false, 0)
	c.Lookup(256)
	victim, evicted := c.Insert(512, false, false, 0)
	if !evicted || !victim.Dirty || victim.Addr != 0 {
		t.Fatalf("dirty victim not reported: %+v", victim)
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	c := small()
	c.Insert(64, false, true, 100)
	_, evicted := c.Insert(64, true, false, 50)
	if evicted {
		t.Fatal("re-insert of resident line evicted something")
	}
	l := c.Peek(64)
	if !l.Dirty {
		t.Fatal("in-place insert lost dirty bit")
	}
	if l.Prefetched {
		t.Fatal("demand insert must clear the prefetched mark")
	}
	if l.ReadyAt != 100 {
		t.Fatalf("ReadyAt shrank to %d; later fills must not reduce it", l.ReadyAt)
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Insert(128, true, false, 0)
	present, dirty := c.Invalidate(128)
	if !present || !dirty {
		t.Fatalf("invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Peek(128) != nil {
		t.Fatal("line survived invalidation")
	}
	present, _ = c.Invalidate(128)
	if present {
		t.Fatal("double invalidation reported present")
	}
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	c := small()
	c.Insert(0, false, false, 0)
	c.Insert(256, false, false, 0)
	c.Peek(0) // must NOT refresh 0's recency
	victim, evicted := c.Insert(512, false, false, 0)
	if !evicted || victim.Addr != 0 {
		t.Fatalf("Peek refreshed LRU: victim %+v", victim)
	}
}

// dirty fills a level with every other line dirty and looks each up, so
// frames, tags, the way predictor and the statistics are all non-zero.
func dirty(c *Cache, lines int) {
	for i := 0; i < lines; i++ {
		a := mem.Addr(i * mem.CachelineSize)
		c.Insert(a, i%2 == 0, false, 0)
		c.Lookup(a)
	}
}

func TestNewReusingResets(t *testing.T) {
	donor := small()
	dirty(donor, 8)
	c := NewReusing(donor.Config(), donor)
	if c != donor {
		t.Fatal("same-geometry donor was not reused")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("reused level kept stats (%d,%d)", h, m)
	}
	if h, m := c.PredStats(); h != 0 || m != 0 {
		t.Fatalf("reused level kept predictor stats (%d,%d)", h, m)
	}
	// One fresh line lifts the empty-level fast path, so the probes
	// below really scan the reused tags.
	c.Insert(0x10000, false, false, 0)
	for i := 0; i < 8; i++ {
		if l := c.Peek(mem.Addr(i * mem.CachelineSize)); l != nil {
			t.Fatalf("reused level kept line %v", lineAddr(c, l))
		}
	}

	other := small()
	dirty(other, 8)
	bigger := NewReusing(Config{Name: "t", Size: 1024, Assoc: 2, HitCycles: 4}, other)
	if bigger == other {
		t.Fatal("mismatched donor was reused")
	}
	if h, _ := other.Stats(); h != 8 || other.Peek(0) == nil {
		t.Fatal("mismatched donor was reset")
	}
}

// TestNewReusingClearsEveryFrame fills every frame of levels whose line
// counts are and are not multiples of the reset's eight-tag blocks, and
// checks that the reset leaves every tag and frame zero.
func TestNewReusingClearsEveryFrame(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "t", Size: 16 * mem.CachelineSize, Assoc: 2},
		{Name: "t", Size: 9 * mem.CachelineSize, Assoc: 3},
		{Name: "t", Size: 27 * mem.CachelineSize, Assoc: 3},
	} {
		c := New(cfg)
		for i := 0; i < len(c.ways); i++ {
			c.Insert(mem.Addr(i*mem.CachelineSize), true, true, 5)
		}
		for i := range c.tags {
			if c.tags[i] == 0 {
				t.Fatalf("%d lines: frame %d not filled", len(c.ways), i)
			}
		}
		c = NewReusing(cfg, c)
		for i := range c.tags {
			if c.tags[i] != 0 || c.ways[i] != (Line{}) {
				t.Fatalf("%d lines: frame %d survived the reset", len(c.ways), i)
			}
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry did not panic")
		}
	}()
	New(Config{Name: "bad", Size: 100, Assoc: 3})
}

// Property: occupancy never exceeds capacity, and a just-inserted line
// is always found.
func TestQuickCapacityInvariant(t *testing.T) {
	f := func(seed uint64, ops uint8) bool {
		rng := sim.NewRand(seed)
		c := New(Config{Name: "q", Size: 1024, Assoc: 4, HitCycles: 1})
		capacity := 1024 / mem.CachelineSize
		live := make(map[mem.Addr]bool)
		for i := 0; i < int(ops); i++ {
			a := mem.Addr(rng.Intn(64) * 64)
			victim, evicted := c.Insert(a, rng.Intn(2) == 0, false, 0)
			live[a] = true
			if evicted {
				delete(live, victim.Addr)
			}
			if c.Peek(a) == nil {
				return false
			}
			if len(live) > capacity {
				return false
			}
		}
		// Everything believed live must be present.
		for a := range live {
			if c.Peek(a) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
