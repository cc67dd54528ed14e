package optane

import "optanesim/internal/mem"

// addrTable is a linear-probed open-addressed map from an aligned
// address to a *T. It indexes the DIMM's per-access structures (write
// buffer, read buffer, AIT cache) in place of runtime maps: a probe is a
// multiply-shift hash plus a short scan, and once the table stops
// growing nothing is allocated.
//
// Keys are stored as addr|1, so bit 0 of every address must be clear
// (XPLines and AIT granules are aligned far beyond that); 0 marks an
// empty slot. del shifts the later entries of the probe chain back into
// the hole (Knuth's Algorithm R), so there are no tombstones and no
// rebuilds. The tables are only ever looked up, never iterated, so no
// result depends on slot order.
type addrTable[T any] struct {
	keys  []uint64
	vals  []*T
	live  int
	shift uint
}

const addrTableInitialSlots = 1 << 9

// init empties the table to slots slots, a power of two.
func (t *addrTable[T]) init(slots int) {
	t.keys = make([]uint64, slots)
	t.vals = make([]*T, slots)
	t.live = 0
	t.shift = 64
	for s := slots; s > 1; s >>= 1 {
		t.shift--
	}
}

// slot is key's home slot.
func (t *addrTable[T]) slot(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns a's value, or nil if absent.
func (t *addrTable[T]) get(a mem.Addr) *T {
	key := uint64(a) | 1
	mask := len(t.keys) - 1
	for i := t.slot(key); ; i = (i + 1) & mask {
		k := t.keys[i]
		if k == key {
			return t.vals[i]
		}
		if k == 0 {
			return nil
		}
	}
}

// put sets a's value to v, which must not be nil.
func (t *addrTable[T]) put(a mem.Addr, v *T) {
	key := uint64(a) | 1
	mask := len(t.keys) - 1
	for i := t.slot(key); ; i = (i + 1) & mask {
		k := t.keys[i]
		if k == key {
			t.vals[i] = v
			return
		}
		if k == 0 {
			t.keys[i] = key
			t.vals[i] = v
			t.live++
			if 2*t.live > len(t.keys) {
				t.grow()
			}
			return
		}
	}
}

// del removes and returns a's value, or nil if absent.
func (t *addrTable[T]) del(a mem.Addr) *T {
	key := uint64(a) | 1
	mask := len(t.keys) - 1
	i := t.slot(key)
	for t.keys[i] != key {
		if t.keys[i] == 0 {
			return nil
		}
		i = (i + 1) & mask
	}
	v := t.vals[i]
	t.live--
	// i is the hole. An entry later in the chain moves into it unless its
	// home slot lies cyclically in (i, j]: then the hole is before its
	// home, and moving it there would hide it from get.
	for j := (i + 1) & mask; t.keys[j] != 0; j = (j + 1) & mask {
		if (j-t.slot(t.keys[j]))&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.keys[i], t.vals[i] = 0, nil
	return v
}

// grow doubles the slot count and re-inserts every entry.
func (t *addrTable[T]) grow() {
	oldKeys, oldVals := t.keys, t.vals
	live := t.live
	t.init(2 * len(oldKeys))
	mask := len(t.keys) - 1
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := t.slot(k)
		for t.keys[j] != 0 {
			j = (j + 1) & mask
		}
		t.keys[j], t.vals[j] = k, oldVals[i]
	}
	t.live = live
}
