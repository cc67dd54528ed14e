package optane

import (
	"container/list"
	"fmt"
	"testing"

	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

// TestAddrTableMatchesMap drives the open-addressed table with seeded
// put/get/del churn and checks every return value and the live count
// against a Go map after every step. Key spans of 200 stay below the
// initial 512 slots' growth point; spans of 5,000 grow the table
// several times while deletions keep shifting probe chains.
func TestAddrTableMatchesMap(t *testing.T) {
	for _, span := range []int{200, 5000} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("span%d/seed%d", span, seed), func(t *testing.T) {
				rng := sim.NewRand(seed)
				var tbl addrTable[int]
				tbl.init(addrTableInitialSlots)
				ref := make(map[mem.Addr]*int)
				for step := 0; step < 100000; step++ {
					a := mem.Addr(rng.Intn(span)) << 8
					switch rng.Intn(3) {
					case 0:
						if got, want := tbl.get(a), ref[a]; got != want {
							t.Fatalf("step %d: get(%#x) = %p, want %p", step, a, got, want)
						}
					case 1:
						v := new(int)
						tbl.put(a, v)
						ref[a] = v
					default:
						got, want := tbl.del(a), ref[a]
						if got != want {
							t.Fatalf("step %d: del(%#x) = %p, want %p", step, a, got, want)
						}
						delete(ref, a)
					}
					if tbl.live != len(ref) {
						t.Fatalf("step %d: live = %d, want %d", step, tbl.live, len(ref))
					}
				}
				for k := 0; k < span; k++ {
					a := mem.Addr(k) << 8
					if got, want := tbl.get(a), ref[a]; got != want {
						t.Fatalf("final get(%#x) = %p, want %p", a, got, want)
					}
				}
				if span > addrTableInitialSlots && len(tbl.keys) == addrTableInitialSlots {
					t.Fatal("table never grew")
				}
			})
		}
	}
}

// rbRef is the read buffer's reference model: a Go map of per-line
// valid bits plus a FIFO slice of install order. A taken XPLine's slot
// stays in the FIFO, and eviction pops slots until one names a resident
// XPLine.
type rbRef struct {
	capacity     int
	retainServed bool
	entries      map[mem.Addr]*rbRefEntry
	fifo         []mem.Addr
	evictions    uint64
}

type rbRefEntry struct {
	valid   [mem.LinesPerXPLine]bool
	readyAt sim.Cycles
}

func (r *rbRef) probe(addr mem.Addr) (sim.Cycles, bool) {
	e := r.entries[addr.XPLine()]
	if e == nil || !e.valid[addr.LineInXPLine()] {
		return 0, false
	}
	if !r.retainServed {
		e.valid[addr.LineInXPLine()] = false
	}
	return e.readyAt, true
}

func (r *rbRef) install(addr mem.Addr, servedIdx int, readyAt sim.Cycles) {
	xpl := addr.XPLine()
	e := r.entries[xpl]
	if e == nil {
		e = new(rbRefEntry)
		r.entries[xpl] = e
		r.fifo = append(r.fifo, xpl)
	}
	for i := range e.valid {
		e.valid[i] = true
	}
	if servedIdx >= 0 && !r.retainServed {
		e.valid[servedIdx] = false
	}
	e.readyAt = readyAt
	for len(r.entries) > r.capacity {
		oldest := r.fifo[0]
		r.fifo = r.fifo[1:]
		if r.entries[oldest] != nil {
			delete(r.entries, oldest)
			r.evictions++
		}
	}
}

func (r *rbRef) take(addr mem.Addr) bool {
	xpl := addr.XPLine()
	if r.entries[xpl] == nil {
		return false
	}
	delete(r.entries, xpl)
	return true
}

// TestReadBufferMatchesReference drives the read buffer with seeded
// random Probe/Install/Take/Contains sequences over a span of twice its
// capacity in XPLines, at both generations' capacities, with and
// without the served-line ablation, and compares every return value,
// the occupancy and the eviction count with rbRef after every step.
func TestReadBufferMatchesReference(t *testing.T) {
	for _, capacity := range []int{64, 88} {
		for _, retain := range []bool{false, true} {
			t.Run(fmt.Sprintf("cap%d/retain=%v", capacity, retain), func(t *testing.T) {
				rng := sim.NewRand(uint64(capacity))
				rb := newReadBuffer(capacity, retain)
				ref := &rbRef{capacity: capacity, retainServed: retain, entries: make(map[mem.Addr]*rbRefEntry)}
				for step := 0; step < 200000; step++ {
					addr := pmAddr(rng.Intn(2*capacity), rng.Intn(mem.LinesPerXPLine))
					switch rng.Intn(4) {
					case 0:
						got, gotOK := rb.Probe(addr)
						want, wantOK := ref.probe(addr)
						if got != want || gotOK != wantOK {
							t.Fatalf("step %d: Probe(%#x) = (%d, %v), want (%d, %v)", step, addr, got, gotOK, want, wantOK)
						}
					case 1:
						served := rng.Intn(mem.LinesPerXPLine+1) - 1
						at := sim.Cycles(step)
						rb.Install(addr, served, at)
						ref.install(addr, served, at)
					case 2:
						if got, want := rb.Take(addr), ref.take(addr); got != want {
							t.Fatalf("step %d: Take(%#x) = %v, want %v", step, addr, got, want)
						}
					default:
						if got, want := rb.Contains(addr), ref.entries[addr.XPLine()] != nil; got != want {
							t.Fatalf("step %d: Contains(%#x) = %v, want %v", step, addr, got, want)
						}
					}
					if rb.Len() != len(ref.entries) || rb.evictions != ref.evictions {
						t.Fatalf("step %d: Len %d evictions %d, want %d and %d", step, rb.Len(), rb.evictions, len(ref.entries), ref.evictions)
					}
				}
			})
		}
	}
}

// TestAITCacheMatchesReference drives a 4,096-entry AIT cache of 4 KB
// granules with seeded lookups over working sets of 0.5x and 4x its
// 16 MB reach, half of them aimed at a hot eighth of the set so both
// hits and LRU evictions happen, and compares every outcome and the
// occupancy with a Go map over a container/list LRU.
func TestAITCacheMatchesReference(t *testing.T) {
	const entries, bits = 4096, 12
	reach := entries << bits
	for _, wss := range []int{reach / 2, 4 * reach} {
		t.Run(fmt.Sprintf("wss%dMB", wss>>20), func(t *testing.T) {
			rng := sim.NewRand(uint64(wss))
			ait := newAITCache(entries, bits)
			lru := list.New() // front = most recent
			ref := make(map[uint64]*list.Element)
			var hits uint64
			for step := 0; step < 200000; step++ {
				span := wss
				if rng.Intn(2) == 0 {
					span = wss / 8
				}
				addr := mem.PMBase + mem.Addr(rng.Intn(span/mem.CachelineSize)*mem.CachelineSize)
				g := uint64(addr) >> bits
				want := false
				if el, ok := ref[g]; ok {
					want = true
					hits++
					lru.MoveToFront(el)
				} else {
					ref[g] = lru.PushFront(g)
					if lru.Len() > entries {
						delete(ref, lru.Remove(lru.Back()).(uint64))
					}
				}
				if got := ait.Lookup(addr); got != want {
					t.Fatalf("step %d: Lookup(%#x) = %v, want %v", step, addr, got, want)
				}
				if ait.Len() != len(ref) {
					t.Fatalf("step %d: Len = %d, want %d", step, ait.Len(), len(ref))
				}
			}
			if ait.hits != hits || hits == 0 || ait.misses == 0 {
				t.Fatalf("hits %d misses %d, reference hits %d", ait.hits, ait.misses, hits)
			}
		})
	}
}
