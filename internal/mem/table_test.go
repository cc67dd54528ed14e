package mem

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// TestTableMatchesMap drives the open-addressed table with seeded
// Put/Get/Del churn and an occasional DeleteIf sweep, and checks every
// return value and the length against a Go map after every step. Key
// spans of 200 stay below the initial 512 slots' growth point; spans of
// 5,000 grow the table several times while deletions keep shifting
// probe chains. The slot count must stay within the growth policy: never
// three quarters full, and after a sweep exactly the smallest power of
// two, at least the Init size, holding 4×(Len()+1) slots.
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
						tbl.DeleteIf(drop)
						for k, v := range ref {
							if drop(v) {
								delete(ref, k)
							}
						}
						want := initSlots
						for want < 4*(len(ref)+1) {
							want *= 2
						}
						if len(tbl.keys) != want {
							t.Fatalf("step %d: %d slots after DeleteIf with %d entries, want %d", step, len(tbl.keys), len(ref), want)
						}
					case op < 333:
						got, gotOK := tbl.Get(a)
						want, wantOK := ref[a]
						if got != want || gotOK != wantOK {
							t.Fatalf("step %d: Get(%#x) = (%d, %v), want (%d, %v)", step, a, got, gotOK, want, wantOK)
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
