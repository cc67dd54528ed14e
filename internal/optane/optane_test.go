package optane

import (
	"testing"
	"testing/quick"

	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

func pmAddr(xpl, line int) mem.Addr {
	return mem.PMBase + mem.Addr(xpl*mem.XPLineSize+line*mem.CachelineSize)
}

func TestProfileValidation(t *testing.T) {
	for _, p := range []Profile{G1(), G2()} {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s profile invalid: %v", p.Name, err)
		}
	}
	bad := G1()
	bad.ReadPorts = 0
	if bad.Validate() == nil {
		t.Fatal("invalid profile accepted")
	}
	bad = G1()
	bad.WriteBufHighWater = bad.WriteBufLines + 1
	if bad.Validate() == nil {
		t.Fatal("high watermark above capacity accepted")
	}
}

func TestGenerationDifferences(t *testing.T) {
	g1, g2 := G1(), G2()
	if g1.ReadBufLines*mem.XPLineSize != 16<<10 {
		t.Fatal("G1 read buffer must be 16 KB")
	}
	if g2.ReadBufLines*mem.XPLineSize != 22<<10 {
		t.Fatal("G2 read buffer must be 22 KB")
	}
	if g1.PeriodicWritebackCycles == 0 || g2.PeriodicWritebackCycles != 0 {
		t.Fatal("periodic write-back is a G1-only mechanism")
	}
	if g1.WriteBufHighWater*mem.XPLineSize != 12<<10 {
		t.Fatal("G1 partial-write knee must be 12 KB")
	}
}

// TestReadBufferExclusive verifies §3.1: a served cacheline is consumed,
// but its XPLine's other lines remain servable.
func TestReadBufferExclusive(t *testing.T) {
	d := MustNewDIMM(G1(), 1)
	a0 := pmAddr(0, 0)

	d.ReadLine(0, a0, true) // media read, installs the XPLine
	c := d.Counters()
	if c.MediaReads != 1 {
		t.Fatalf("first read: %d media reads, want 1", c.MediaReads)
	}
	// Other lines of the XPLine hit the buffer.
	d.ReadLine(1000, pmAddr(0, 1), true)
	d.ReadLine(2000, pmAddr(0, 2), true)
	if c.MediaReads != 1 {
		t.Fatalf("buffered lines caused media reads: %d", c.MediaReads)
	}
	// Re-reading a consumed line needs the media again (exclusivity):
	// this is what pins Fig. 2's RA floor at 1.
	d.ReadLine(3000, a0, true)
	if c.MediaReads != 2 {
		t.Fatalf("consumed line served again without media read")
	}
}

// TestReadBufferFIFOCapacity verifies the 16 KB FIFO of §3.1.
func TestReadBufferFIFOCapacity(t *testing.T) {
	prof := G1()
	d := MustNewDIMM(prof, 1)
	// Fill the buffer with exactly capacity XPLines (reading line 0 of
	// each, leaving lines 1-3 valid).
	for i := 0; i < prof.ReadBufLines; i++ {
		d.ReadLine(sim.Cycles(i*10), pmAddr(i, 0), true)
	}
	if d.ReadBufferLen() != prof.ReadBufLines {
		t.Fatalf("buffer holds %d lines, want %d", d.ReadBufferLen(), prof.ReadBufLines)
	}
	before := d.Counters().MediaReads
	// One more XPLine evicts the oldest (FIFO).
	d.ReadLine(10000, pmAddr(prof.ReadBufLines, 0), true)
	if d.ReadBufferLen() != prof.ReadBufLines {
		t.Fatal("buffer exceeded capacity")
	}
	// XPLine 0 was evicted: reading its (unconsumed!) line 1 is a miss.
	d.ReadLine(11000, pmAddr(0, 1), true)
	if d.Counters().MediaReads != before+2 {
		t.Fatal("FIFO eviction did not evict the oldest XPLine")
	}
	// The second-oldest survivor still hits.
	d.ReadLine(12000, pmAddr(2, 1), true)
	if d.Counters().MediaReads != before+2 {
		t.Fatal("survivor XPLine was wrongly evicted")
	}
}

// TestWriteBufferMergesPartialWrites verifies §3.2: partial writes are
// retained and merged with no media traffic.
func TestWriteBufferMergesPartialWrites(t *testing.T) {
	d := MustNewDIMM(G1(), 1)
	for pass := 0; pass < 5; pass++ {
		for i := 0; i < 8; i++ {
			d.WriteLine(sim.Cycles(pass*1000+i*10), pmAddr(i, 0))
		}
	}
	c := d.Counters()
	if c.MediaWrites != 0 {
		t.Fatalf("partial writes under the knee caused %d media writes", c.MediaWrites)
	}
	if c.BufferWriteHits == 0 {
		t.Fatal("repeated writes did not merge")
	}
}

// TestPeriodicWritebackG1 verifies §3.2: fully written XPLines are
// written back ~every 5000 cycles on G1 but retained on G2.
func TestPeriodicWritebackG1(t *testing.T) {
	for _, prof := range []Profile{G1(), G2()} {
		d := MustNewDIMM(prof, 1)
		for l := 0; l < 4; l++ {
			d.WriteLine(sim.Cycles(l*10), pmAddr(0, l)) // full XPLine
		}
		// Advance time past the write-back deadline via another access.
		d.WriteLine(20000, pmAddr(50, 0))
		got := d.Counters().MediaWrites
		if prof.Generation == 1 && got != 1 {
			t.Fatalf("G1: %d media writes, want 1 periodic write-back", got)
		}
		if prof.Generation == 2 && got != 0 {
			t.Fatalf("G2: %d media writes, want 0 (periodic write-back disabled)", got)
		}
	}
}

// TestEvictionRMW verifies that evicting a partially written XPLine
// costs a media read (the RMW) plus a media write.
func TestEvictionRMW(t *testing.T) {
	prof := G1()
	d := MustNewDIMM(prof, 1)
	// Overflow the high watermark with partial writes to distinct lines.
	n := prof.WriteBufHighWater + 8
	for i := 0; i < n; i++ {
		d.WriteLine(sim.Cycles(i*10), pmAddr(i, 0))
	}
	c := d.Counters()
	if c.MediaWrites == 0 {
		t.Fatal("no evictions past the high watermark")
	}
	if c.MediaReads < c.MediaWrites {
		t.Fatalf("partial evictions need RMW reads: reads=%d writes=%d", c.MediaReads, c.MediaWrites)
	}
}

// TestReadBufferToWriteBufferTransition verifies §3.3: a write hitting a
// read-buffered XPLine updates it in place, avoiding the RMW read.
func TestReadBufferToWriteBufferTransition(t *testing.T) {
	prof := G1()
	d := MustNewDIMM(prof, 1)
	d.ReadLine(0, pmAddr(7, 0), true) // XPLine 7 into the read buffer
	readsBefore := d.Counters().MediaReads

	d.WriteLine(100, pmAddr(7, 1)) // transition, no RMW
	if d.Counters().BufferWriteHits != 1 {
		t.Fatal("write into read-buffered XPLine not counted as a hit")
	}
	if d.Counters().MediaReads != readsBefore {
		t.Fatal("transition performed a media read")
	}
	// The XPLine moved out of the read buffer...
	if _, ok := d.rb.entries.Get(pmAddr(7, 0).XPLine()); ok {
		t.Fatal("XPLine still in the read buffer after the transition")
	}
	// ...into the write buffer, carrying full base data, so its later
	// eviction needs no RMW read.
	e, ok := d.wb.tbl.Get(pmAddr(7, 0).XPLine())
	if !ok || !e.hasBase {
		t.Fatalf("transitioned entry missing base data: present=%v", ok)
	}
	// And a read of an unwritten line of that XPLine is served by the
	// write buffer's base data.
	d.ReadLine(200, pmAddr(7, 3), true)
	if d.Counters().MediaReads != readsBefore {
		t.Fatal("read of transitioned XPLine went to the media")
	}
}

// TestSeparateBuffers verifies §3.3: interleaved reads and writes to
// disjoint regions that individually fit their buffers do not interfere.
func TestSeparateBuffers(t *testing.T) {
	d := MustNewDIMM(G1(), 1)
	now := sim.Cycles(0)
	// Interleave a 16 KB read region (fits read buffer) with an 8 KB
	// write region (fits write buffer) for several passes.
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < 64; i++ {
			d.ReadLine(now, pmAddr(i, pass%4), true)
			now += 10
			if i < 32 {
				d.WriteLine(now, pmAddr(1000+i, 0))
				now += 10
			}
		}
	}
	c := d.Counters()
	if c.MediaWrites != 0 {
		t.Fatalf("write region spilled to media: %d writes", c.MediaWrites)
	}
	// Reads: one media read per (XPLine, line) consumption — exactly 64
	// per pass, never more (no interference evictions).
	if c.MediaReads > 64*4 {
		t.Fatalf("read region thrashed: %d media reads", c.MediaReads)
	}
}

func TestAITCacheLRU(t *testing.T) {
	a := newAITCache(4, 12)
	pages := []mem.Addr{0, 4096, 8192, 12288}
	for _, p := range pages {
		if a.Lookup(mem.PMBase + p) {
			t.Fatal("cold AIT lookup hit")
		}
	}
	if !a.Lookup(mem.PMBase + 0) {
		t.Fatal("resident granule missed")
	}
	// Insert a 5th granule: LRU (page 4096, since 0 was just touched)
	// must be evicted.
	a.Lookup(mem.PMBase + 16384)
	if a.Lookup(mem.PMBase + 4096) {
		t.Fatal("LRU granule survived eviction")
	}
	if !a.Lookup(mem.PMBase + 0) {
		t.Fatal("MRU granule was evicted")
	}
	if a.Len() > 4 {
		t.Fatalf("AIT cache over capacity: %d", a.Len())
	}
}

func TestAITHitRatio(t *testing.T) {
	d := MustNewDIMM(G1(), 1)
	for i := 0; i < 100; i++ {
		d.ReadLine(sim.Cycles(i*10), pmAddr(0, 0), true)
	}
	if r := d.AITHitRatio(); r < 0.9 {
		t.Fatalf("hot-granule AIT hit ratio = %v", r)
	}
}

// TestWriteBufferEvictionPolicies: G1 batch-evicts at its 12 KB
// watermark; G2 evicts single victims at 16 KB, declining gracefully.
func TestWriteBufferEvictionPolicies(t *testing.T) {
	hit := func(prof Profile, wssLines int) float64 {
		d := MustNewDIMM(prof, 3)
		rng := sim.NewRand(5)
		now := sim.Cycles(0)
		for i := 0; i < 6000; i++ {
			d.WriteLine(now, pmAddr(rng.Intn(wssLines), 0))
			now += 25
		}
		return d.Counters().WriteBufferHitRatio()
	}
	for _, prof := range []Profile{G1(), G2()} {
		small := hit(prof, 40) // 10 KB: under both knees
		if small < 0.95 {
			t.Fatalf("%s: WSS under the knee should hit ~always, got %v", prof.Name, small)
		}
		big := hit(prof, 128) // 32 KB
		if big > 0.75 {
			t.Fatalf("%s: WSS over capacity kept hit ratio %v", prof.Name, big)
		}
	}
	// G2's knee is at 16 KB: a 14 KB working set still fits on G2 but
	// not under G1's 12 KB watermark.
	g1 := hit(G1(), 56)
	g2 := hit(G2(), 56)
	if g2 < 0.95 {
		t.Fatalf("G2 14 KB WSS should fit: hit=%v", g2)
	}
	if g1 >= g2 {
		t.Fatalf("G1 knee should bite before G2's: g1=%v g2=%v", g1, g2)
	}
}

// Property: WA and RA are bounded by the granularity mismatch (4).
func TestQuickAmplificationBounds(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		rng := sim.NewRand(seed)
		d := MustNewDIMM(G1(), seed)
		now := sim.Cycles(0)
		for i := 0; i < int(opsRaw)+10; i++ {
			a := pmAddr(rng.Intn(100), rng.Intn(4))
			if rng.Intn(2) == 0 {
				d.ReadLine(now, a, true)
			} else {
				d.WriteLine(now, a)
			}
			now += sim.Cycles(rng.Intn(2000))
		}
		// Drain periodic write-backs so counters settle.
		d.WriteLine(now+100000, pmAddr(200, 0))
		c := d.Counters()
		// WA is bounded by the granularity mismatch. RA is bounded by
		// the mismatch on demand reads plus at most one 256 B RMW read
		// per media write (evictions of partially written XPLines).
		readBound := 4*float64(c.IMCReadBytes) + 256*float64(c.MediaWrites)
		return c.WA() <= 4.001 && float64(c.MediaReadBytes) <= readBound+0.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the write buffer never exceeds its high watermark (G1) or
// capacity (G2).
func TestQuickWriteBufferCapacity(t *testing.T) {
	f := func(seed uint64, gen bool) bool {
		prof := G1()
		if gen {
			prof = G2()
		}
		rng := sim.NewRand(seed)
		d := MustNewDIMM(prof, seed)
		now := sim.Cycles(0)
		for i := 0; i < 500; i++ {
			d.WriteLine(now, pmAddr(rng.Intn(300), rng.Intn(4)))
			now += 30
			if d.WriteBufferLen() > prof.WriteBufLines {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
