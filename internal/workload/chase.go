package workload

import (
	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

// ElementSize is the size of one §3.6 working-set element: one XPLine.
const ElementSize = mem.XPLineSize

// ChaseOrder returns the traversal order of the paper's §3.6 building
// block: a circular linked list of n contiguous 256 B, XPLine-aligned
// elements starting at base. Position i of the traversal is element
// perm[i] of rng.Perm(n) when random is true, element i otherwise; the
// element after the last is the first. The first cacheline of an
// element holds the next pointer; the pad area occupies the remaining
// three cachelines, so updating pad data never invalidates the cached
// pointer.
func ChaseOrder(base mem.Addr, rng *sim.Rand, n int, random bool) []mem.Addr {
	if n < 1 {
		panic("workload: chase order needs at least one element")
	}
	var perm []int
	if random {
		perm = rng.Perm(n)
	}
	elems := make([]mem.Addr, n)
	for i := range elems {
		j := i
		if perm != nil {
			j = perm[i]
		}
		elems[i] = base + mem.Addr(j*ElementSize)
	}
	return elems
}

// PadLine returns the address of pad cacheline i (1..3) of the element
// at addr.
func PadLine(elem mem.Addr, i int) mem.Addr {
	if i < 1 || i >= mem.LinesPerXPLine {
		panic("workload: pad line index out of range")
	}
	return elem + mem.Addr(i*mem.CachelineSize)
}
