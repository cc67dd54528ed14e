package optane

import "optanesim/internal/mem"

// aitCache models the on-DIMM cache of the address indirection table
// (AIT), which translates DIMM physical addresses to media locations.
// Its coverage (entries x granule) is ~16 MB, producing the read-latency
// knee the paper observes at a 16 MB working set (§3.6). Entries are kept
// in LRU order in a doubly-linked list of nodes, linked by index, and a
// mem.Table maps each granule-aligned address to its node; a miss at
// capacity reuses the LRU tail's node for the new granule, so a full
// cache allocates nothing.
type aitCache struct {
	granuleBits uint
	capacity    int
	entries     mem.Table[int32] // granule -> index into nodes
	nodes       []aitNode        // grows by append up to capacity
	head, tail  int32            // head = most recent; -1 when empty

	hits, misses uint64
}

type aitNode struct {
	granule    mem.Addr
	prev, next int32 // -1 ends the list
}

func newAITCache(entries int, granuleBits uint) *aitCache {
	a := &aitCache{granuleBits: granuleBits, capacity: entries, head: -1, tail: -1}
	a.entries.Init(1 << 9)
	return a
}

// Lookup touches the translation granule covering addr and reports
// whether it was cached. On a miss the granule is installed, evicting the
// least recently used entry if necessary.
func (a *aitCache) Lookup(addr mem.Addr) bool {
	granule := addr >> a.granuleBits << a.granuleBits
	if n, ok := a.entries.Get(granule); ok {
		a.hits++
		a.moveToFront(n)
		return true
	}
	a.misses++
	var n int32
	if len(a.nodes) < a.capacity {
		n = int32(len(a.nodes))
		a.nodes = append(a.nodes, aitNode{})
	} else {
		n = a.tail
		a.unlink(n)
		a.entries.Del(a.nodes[n].granule)
	}
	a.nodes[n].granule = granule
	a.entries.Put(granule, n)
	a.pushFront(n)
	return false
}

// HitRatio reports the fraction of lookups that hit.
func (a *aitCache) HitRatio() float64 {
	total := a.hits + a.misses
	if total == 0 {
		return 0
	}
	return float64(a.hits) / float64(total)
}

func (a *aitCache) Len() int { return a.entries.Len() }

func (a *aitCache) pushFront(n int32) {
	a.nodes[n].prev = -1
	a.nodes[n].next = a.head
	if a.head >= 0 {
		a.nodes[a.head].prev = n
	}
	a.head = n
	if a.tail < 0 {
		a.tail = n
	}
}

func (a *aitCache) unlink(n int32) {
	prev, next := a.nodes[n].prev, a.nodes[n].next
	if prev >= 0 {
		a.nodes[prev].next = next
	} else {
		a.head = next
	}
	if next >= 0 {
		a.nodes[next].prev = prev
	} else {
		a.tail = prev
	}
}

func (a *aitCache) moveToFront(n int32) {
	if a.head == n {
		return
	}
	a.unlink(n)
	a.pushFront(n)
}
