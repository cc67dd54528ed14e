package workload

import (
	"testing"
	"testing/quick"

	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

func TestSequenceKeysUniqueNonZero(t *testing.T) {
	keys := SequenceKeys(123, 50000)
	seen := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		if k == 0 {
			t.Fatal("zero key produced")
		}
		if seen[k] {
			t.Fatal("duplicate key produced")
		}
		seen[k] = true
	}
}

func TestSequenceKeysDisjointSalts(t *testing.T) {
	a := SequenceKeys(0, 1000)
	b := SequenceKeys(1000, 1000) // non-overlapping salt range
	seen := make(map[uint64]bool, len(a))
	for _, k := range a {
		seen[k] = true
	}
	for _, k := range b {
		if seen[k] {
			t.Fatal("disjoint salt ranges collided")
		}
	}
}

func TestSplitMix64Bijective(t *testing.T) {
	// Spot-check injectivity over a contiguous range.
	seen := make(map[uint64]bool, 100000)
	for i := uint64(0); i < 100000; i++ {
		v := SplitMix64(i)
		if seen[v] {
			t.Fatal("SplitMix64 collision")
		}
		seen[v] = true
	}
}

func TestUniqueKeys(t *testing.T) {
	rng := sim.NewRand(5)
	keys := UniqueKeys(rng, 10000)
	seen := make(map[uint64]bool)
	for _, k := range keys {
		if k == 0 || seen[k] {
			t.Fatal("UniqueKeys produced zero or duplicate")
		}
		seen[k] = true
	}
}

func TestPermutation(t *testing.T) {
	rng := sim.NewRand(7)
	p := Permutation(rng, 500)
	seen := make([]bool, 500)
	for _, v := range p {
		if seen[v] {
			t.Fatal("not a permutation")
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	rng := sim.NewRand(9)
	z := NewZipf(rng, 1000, 0.99)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		idx := z.Next()
		if idx < 0 || idx >= 1000 {
			t.Fatalf("Zipf out of range: %d", idx)
		}
		counts[idx]++
	}
	// Rank 0 must dominate, and the head must hold most of the mass.
	if counts[0] < counts[500]*10 {
		t.Fatalf("no skew: rank0=%d rank500=%d", counts[0], counts[500])
	}
	head := 0
	for i := 0; i < 100; i++ {
		head += counts[i]
	}
	if float64(head)/n < 0.5 {
		t.Fatalf("top-10%% holds only %.2f of the mass", float64(head)/n)
	}
}

func TestChaseListSequential(t *testing.T) {
	rng := sim.NewRand(1)
	order := ChaseOrder(mem.PMBase, rng, 64, false)
	if len(order) != 64 || order[0] != mem.PMBase {
		t.Fatalf("sequential order has %d elements from %v", len(order), order[0])
	}
	// Sequential order: elements ascend by 256 B from base.
	for i := 1; i < 64; i++ {
		if order[i] != order[i-1]+ElementSize {
			t.Fatal("sequential order not contiguous")
		}
	}
	// Only a random order draws from rng.
	if rng.Uint64() != sim.NewRand(1).Uint64() {
		t.Fatal("sequential order consumed the rng")
	}
}

func TestChaseListRandomIsPermutation(t *testing.T) {
	order := ChaseOrder(mem.PMBase, sim.NewRand(2), 256, true)
	if !isChaseCycle(order, mem.PMBase) {
		t.Fatalf("random order is not one cycle over the 256 elements")
	}
	// Random linkage must not be fully sequential.
	sequentialRuns := 0
	for i := 1; i < 256; i++ {
		if order[i] == order[i-1]+ElementSize {
			sequentialRuns++
		}
	}
	if sequentialRuns > 200 {
		t.Fatalf("random order is mostly sequential (%d runs)", sequentialRuns)
	}
}

func TestPadLine(t *testing.T) {
	e := mem.PMBase
	if PadLine(e, 1) != e+64 || PadLine(e, 3) != e+192 {
		t.Fatal("pad line addressing broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PadLine(0) accepted the pointer cacheline")
		}
	}()
	PadLine(e, 0)
}

func TestElementsXPLineAligned(t *testing.T) {
	for _, e := range ChaseOrder(mem.PMBase, sim.NewRand(3), 100, true) {
		if e%mem.XPLineSize != 0 {
			t.Fatalf("element %v not XPLine-aligned", e)
		}
	}
}

// isChaseCycle reports whether order visits each of the len(order)
// XPLine-aligned elements starting at base exactly once, so following
// it from the last element back to the first closes one full cycle.
func isChaseCycle(order []mem.Addr, base mem.Addr) bool {
	seen := make(map[mem.Addr]bool, len(order))
	for _, e := range order {
		if e < base || e >= base+mem.Addr(len(order)*ElementSize) || e%mem.XPLineSize != 0 || seen[e] {
			return false
		}
		seen[e] = true
	}
	return true
}

// Property: any chase order is one full cycle over distinct,
// XPLine-aligned elements.
func TestQuickChaseCycle(t *testing.T) {
	f := func(seed uint64, nRaw uint8, random bool) bool {
		n := int(nRaw)%200 + 1
		order := ChaseOrder(mem.DRAMBase, sim.NewRand(seed), n, random)
		return len(order) == n && isChaseCycle(order, mem.DRAMBase)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
