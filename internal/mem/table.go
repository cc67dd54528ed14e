package mem

// Table is a linear-probed open-addressed map from an aligned address to
// a V. It indexes the simulator's per-line lookups in place of runtime
// maps: the iMC's read-after-persist hazards and the DIMM's write
// buffer, read buffer and AIT cache. A probe is a multiply-shift hash
// plus a short scan, and only growth and DeleteIf allocate.
//
// Keys are stored as addr|1, so bit 0 of every address must be clear
// (cachelines, XPLines and AIT granules are aligned far beyond that); 0
// marks an empty slot. Del shifts the later entries of the probe chain
// back into the hole (Knuth's Algorithm R), so there are no tombstones.
// Lookups never depend on slot order, and DeleteIf only removes, so no
// result depends on where an entry sits.
//
// A table grows once it is three quarters full, and DeleteIf re-sizes
// it: both re-insert every entry into the smallest power of two, no
// smaller than the Init size, that holds 4×(Len()+1) slots.
type Table[V any] struct {
	keys  []uint64
	vals  []V
	live  int
	floor int  // the Init size
	shift uint // 64 - log2(len(keys))
}

// Init empties the table to slots slots, a power of two, which is also
// the smallest size it will ever shrink to.
func (t *Table[V]) Init(slots int) {
	t.floor = slots
	t.alloc(slots)
	t.live = 0
}

// alloc replaces the slot arrays with slots empty slots.
func (t *Table[V]) alloc(slots int) {
	t.keys = make([]uint64, slots)
	t.vals = make([]V, slots)
	t.shift = 64
	for s := slots; s > 1; s >>= 1 {
		t.shift--
	}
}

// Len reports the number of entries.
func (t *Table[V]) Len() int { return t.live }

// slot is key's home slot.
func (t *Table[V]) slot(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// Get returns a's value and whether a is present.
func (t *Table[V]) Get(a Addr) (V, bool) {
	key := uint64(a) | 1
	mask := len(t.keys) - 1
	for i := t.slot(key); ; i = (i + 1) & mask {
		k := t.keys[i]
		if k == key {
			return t.vals[i], true
		}
		if k == 0 {
			var zero V
			return zero, false
		}
	}
}

// Put sets a's value to v.
func (t *Table[V]) Put(a Addr, v V) {
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
			if 4*t.live >= 3*len(t.keys) {
				t.rehash()
			}
			return
		}
	}
}

// Del removes a, returning its value and whether it was present.
func (t *Table[V]) Del(a Addr) (V, bool) {
	var zero V
	key := uint64(a) | 1
	mask := len(t.keys) - 1
	i := t.slot(key)
	for t.keys[i] != key {
		if t.keys[i] == 0 {
			return zero, false
		}
		i = (i + 1) & mask
	}
	v := t.vals[i]
	t.live--
	// i is the hole. An entry later in the chain moves into it unless its
	// home slot lies cyclically in (i, j]: then the hole is before its
	// home, and moving it there would hide it from Get.
	for j := (i + 1) & mask; t.keys[j] != 0; j = (j + 1) & mask {
		if (j-t.slot(t.keys[j]))&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.keys[i], t.vals[i] = 0, zero
	return v, true
}

// DeleteIf removes every entry whose value drop reports true, then
// re-sizes the table to what is left.
func (t *Table[V]) DeleteIf(drop func(V) bool) {
	for i, k := range t.keys {
		// The old arrays are only read back by rehash, so emptying the
		// slot in place is enough: no probe chain needs to stay intact.
		if k != 0 && drop(t.vals[i]) {
			t.keys[i] = 0
			t.live--
		}
	}
	t.rehash()
}

// rehash re-inserts every entry into fresh arrays of the smallest power
// of two, no smaller than the Init size, that holds 4×(live+1) slots.
func (t *Table[V]) rehash() {
	slots := t.floor
	for slots < 4*(t.live+1) {
		slots *= 2
	}
	keys, vals := t.keys, t.vals
	t.alloc(slots)
	mask := slots - 1
	for i, k := range keys {
		if k == 0 {
			continue
		}
		j := t.slot(k)
		for t.keys[j] != 0 {
			j = (j + 1) & mask
		}
		t.keys[j], t.vals[j] = k, vals[i]
	}
}
