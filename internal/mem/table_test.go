package mem

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// TestTableMatchesMap drives the open-addressed table with seeded
// Put/Get/Ref/Del churn and an occasional DeleteIf sweep, and checks
// every return value and the length against a Go map after every step;
// a Ref step also writes through the pointer. Key spans of 200 stay
// below the initial 512 slots' growth point; spans of 5,000 grow the
// table several times while deletions keep shifting probe chains. The
// slot count must stay within the growth policy: never three quarters
// full, and unchanged by a sweep.
func TestTableMatchesMap(t *testing.T) {
	const initSlots = 1 << 9
	for _, span := range []int{200, 5000} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("span%d/seed%d", span, seed), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, 0))
				var tbl Table[int]
				tbl.Init(initSlots)
				ref := make(map[Addr]int)
				grew := false
				for step := 0; step < 100000; step++ {
					a := Addr(rng.IntN(span)) << 8
					switch op := rng.IntN(1000); {
					case op == 0:
						drop := func(v int) bool { return v%4 == 0 }
						slots := len(tbl.keys)
						tbl.DeleteIf(drop)
						for k, v := range ref {
							if drop(v) {
								delete(ref, k)
							}
						}
						if len(tbl.keys) != slots {
							t.Fatalf("step %d: DeleteIf re-sized %d slots to %d", step, slots, len(tbl.keys))
						}
					case op < 250:
						got, gotOK := tbl.Get(a)
						want, wantOK := ref[a]
						if got != want || gotOK != wantOK {
							t.Fatalf("step %d: Get(%#x) = (%d, %v), want (%d, %v)", step, a, got, gotOK, want, wantOK)
						}
					case op < 333:
						p := tbl.Ref(a)
						want, wantOK := ref[a]
						if (p != nil) != wantOK || p != nil && *p != want {
							t.Fatalf("step %d: Ref(%#x) = %v, want (%d, %v)", step, a, p, want, wantOK)
						}
						if p != nil {
							*p = -step
							ref[a] = -step
						}
					case op < 666:
						tbl.Put(a, step)
						ref[a] = step
					default:
						got, gotOK := tbl.Del(a)
						want, wantOK := ref[a]
						if got != want || gotOK != wantOK {
							t.Fatalf("step %d: Del(%#x) = (%d, %v), want (%d, %v)", step, a, got, gotOK, want, wantOK)
						}
						delete(ref, a)
					}
					if tbl.Len() != len(ref) {
						t.Fatalf("step %d: Len = %d, want %d", step, tbl.Len(), len(ref))
					}
					if 4*tbl.Len() >= 3*len(tbl.keys) {
						t.Fatalf("step %d: %d entries in %d slots", step, tbl.Len(), len(tbl.keys))
					}
					grew = grew || len(tbl.keys) > initSlots
				}
				for k := 0; k < span; k++ {
					a := Addr(k) << 8
					got, gotOK := tbl.Get(a)
					want, wantOK := ref[a]
					if got != want || gotOK != wantOK {
						t.Fatalf("final Get(%#x) = (%d, %v), want (%d, %v)", a, got, gotOK, want, wantOK)
					}
				}
				if grew != (span > initSlots) {
					t.Fatalf("grew = %v with a span of %d keys", grew, span)
				}
			})
		}
	}
}

// TestTableDeleteIfInPlace sweeps every other entry out of a table
// whose probe chains wrap past the last slot, so backward shifts move
// entries from the front of the arrays to the back and rescan slots the
// sweep has passed. Every survivor must still be found, and the sweep
// must keep the slot count and allocate nothing.
func TestTableDeleteIfInPlace(t *testing.T) {
	const slots = 64
	var tbl Table[int]
	tbl.Init(slots)
	// Sixteen keys whose home is one of the last four slots fill them and
	// wrap twelve slots into the front; twenty more land anywhere. 36
	// entries stay under the 48 that would grow 64 slots.
	var keys []Addr
	for k, wrapping := 1, 0; len(keys) < 36; k++ {
		a := Addr(k) << 8
		if home := tbl.slot(uint64(a) | 1); home >= slots-4 {
			if wrapping == 16 {
				continue
			}
			wrapping++
		} else if len(keys)-wrapping == 20 {
			continue
		}
		keys = append(keys, a)
	}
	fill := func() {
		for i, a := range keys {
			tbl.Put(a, i)
		}
	}
	fill()
	wrapped := 0
	for i, k := range tbl.keys {
		if k != 0 && i < tbl.slot(k) {
			wrapped++
		}
	}
	if wrapped == 0 {
		t.Fatal("no probe chain wraps past the last slot")
	}
	odd := func(v int) bool { return v%2 == 1 }
	allocs := testing.AllocsPerRun(10, func() {
		fill()
		tbl.DeleteIf(odd)
	})
	if allocs != 0 {
		t.Errorf("refill and DeleteIf made %v allocations, want 0", allocs)
	}
	if len(tbl.keys) != slots {
		t.Errorf("%d slots after DeleteIf, want %d", len(tbl.keys), slots)
	}
	if tbl.Len() != len(keys)/2 {
		t.Errorf("Len = %d, want %d", tbl.Len(), len(keys)/2)
	}
	for i, a := range keys {
		v, ok := tbl.Get(a)
		if want := i%2 == 0; ok != want || ok && v != i {
			t.Errorf("key %d (%#x): Get = (%d, %v), want present=%v", i, a, v, ok, want)
		}
	}
}
