package trace

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRatios(t *testing.T) {
	c := Counters{
		DemandReadBytes: 1000, IMCReadBytes: 2000, MediaReadBytes: 4000,
		DemandWriteBytes: 500, IMCWriteBytes: 1000, MediaWriteBytes: 4000,
	}
	if c.RA() != 2.0 {
		t.Fatalf("RA = %v", c.RA())
	}
	if c.WA() != 4.0 {
		t.Fatalf("WA = %v", c.WA())
	}
	if c.PMReadRatio() != 4.0 {
		t.Fatalf("PMReadRatio = %v", c.PMReadRatio())
	}
	if c.IMCReadRatio() != 2.0 {
		t.Fatalf("IMCReadRatio = %v", c.IMCReadRatio())
	}
}

func TestZeroDenominators(t *testing.T) {
	var c Counters
	if c.RA() != 0 || c.WA() != 0 || c.PMReadRatio() != 0 || c.IMCReadRatio() != 0 || c.WriteBufferHitRatio() != 0 {
		t.Fatal("zero counters must yield zero ratios, not NaN")
	}
	// Numerator traffic without denominator traffic (e.g. media reads
	// driven purely by prefetch accounting quirks) must still be defined.
	c = Counters{MediaReadBytes: 512, MediaWriteBytes: 512, BufferWriteHits: 3}
	if c.RA() != 0 || c.WA() != 0 || c.PMReadRatio() != 0 || c.IMCReadRatio() != 0 || c.WriteBufferHitRatio() != 0 {
		t.Fatal("zero denominators must yield zero ratios even with non-zero numerators")
	}
}

func TestWriteBufferHitRatio(t *testing.T) {
	c := Counters{IMCWriteBytes: 64 * 10, BufferWriteHits: 7}
	if got := c.WriteBufferHitRatio(); got != 0.7 {
		t.Fatalf("hit ratio = %v, want 0.7", got)
	}
}

func TestAddAndReset(t *testing.T) {
	a := Counters{DemandReadBytes: 1, IMCReadBytes: 2, MediaReadBytes: 3, MediaWrites: 4}
	b := Counters{DemandReadBytes: 10, IMCReadBytes: 20, MediaReadBytes: 30, MediaWrites: 40}
	a.Add(&b)
	if a.DemandReadBytes != 11 || a.IMCReadBytes != 22 || a.MediaReadBytes != 33 || a.MediaWrites != 44 {
		t.Fatalf("Add wrong: %+v", a)
	}
	a.Reset()
	if a != (Counters{}) {
		t.Fatalf("Reset left state: %+v", a)
	}
}

func TestString(t *testing.T) {
	c := Counters{IMCReadBytes: 256, MediaReadBytes: 256}
	if !strings.Contains(c.String(), "RA=1.00") {
		t.Fatalf("String() = %q", c.String())
	}
}

// Property: Add is commutative and ratios are scale-invariant.
func TestQuickAddCommutes(t *testing.T) {
	f := func(a, b Counters) bool {
		x, y := a, b
		x.Add(&b)
		y.Add(&a)
		return x == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRatioScaleInvariant(t *testing.T) {
	f := func(imc, media uint16, kRaw uint8) bool {
		k := uint64(kRaw)%7 + 1
		a := Counters{IMCReadBytes: uint64(imc), MediaReadBytes: uint64(media)}
		b := Counters{IMCReadBytes: uint64(imc) * k, MediaReadBytes: uint64(media) * k}
		return a.RA() == b.RA()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
