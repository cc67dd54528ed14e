package optane

import "optanesim/internal/mem"

// aitCache models the on-DIMM cache of the address indirection table
// (AIT), which translates DIMM physical addresses to media locations.
// Its coverage (entries x granule) is ~16 MB, producing the read-latency
// knee the paper observes at a 16 MB working set (§3.6). Entries are kept
// in LRU order with an intrusive doubly-linked list over a mem.Table
// keyed by granule-aligned address; a miss at capacity reuses the LRU
// tail's node for the new granule, so a full cache allocates nothing.
type aitCache struct {
	granuleBits uint
	capacity    int
	entries     mem.Table[*aitNode]
	head, tail  *aitNode // head = most recent

	hits, misses uint64
}

type aitNode struct {
	granule    mem.Addr
	prev, next *aitNode
}

func newAITCache(entries int, granuleBits uint) *aitCache {
	a := &aitCache{granuleBits: granuleBits, capacity: entries}
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
	var n *aitNode
	if a.entries.Len() < a.capacity {
		n = new(aitNode)
	} else {
		n = a.tail
		a.unlink(n)
		a.entries.Del(n.granule)
	}
	n.granule = granule
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

func (a *aitCache) pushFront(n *aitNode) {
	n.prev = nil
	n.next = a.head
	if a.head != nil {
		a.head.prev = n
	}
	a.head = n
	if a.tail == nil {
		a.tail = n
	}
}

func (a *aitCache) unlink(n *aitNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		a.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		a.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (a *aitCache) moveToFront(n *aitNode) {
	if a.head == n {
		return
	}
	a.unlink(n)
	a.pushFront(n)
}
