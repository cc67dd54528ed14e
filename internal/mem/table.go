package mem

// Table is a linear-probed open-addressed map from an aligned address to
// a V. It indexes the simulator's per-line lookups in place of runtime
// maps: the iMC's read-after-persist hazards and the DIMM's write
// buffer, read buffer and AIT cache, which keep their entries as values
// in the table and update them through Ref. A probe is a multiply-shift
// hash plus a short scan, and only growth allocates.
//
// Keys are stored as addr|1, so bit 0 of every address must be clear
// (cachelines, XPLines and AIT granules are aligned far beyond that); 0
// marks an empty slot. Del and DeleteIf shift the later entries of the
// probe chain back into the hole (Knuth's Algorithm R), so there are no
// tombstones. Lookups never depend on slot order, and DeleteIf only
// removes, so no result depends on where an entry sits.
//
// A table grows once it is three quarters full, re-inserting every entry
// into the smallest power of two that holds 4×(Len()+1) slots, and never
// shrinks.
type Table[V any] struct {
	keys  []uint64
	vals  []V
	live  int
	shift uint // 64 - log2(len(keys))
}

// Init empties the table to slots slots, a power of two.
func (t *Table[V]) Init(slots int) {
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

// find returns a's slot, or -1 when a is absent.
func (t *Table[V]) find(a Addr) int {
	key := uint64(a) | 1
	mask := len(t.keys) - 1
	for i := t.slot(key); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// Get returns a's value and whether a is present.
func (t *Table[V]) Get(a Addr) (V, bool) {
	if i := t.find(a); i >= 0 {
		return t.vals[i], true
	}
	var zero V
	return zero, false
}

// Ref returns a pointer to a's value, or nil when a is absent. The
// pointer is valid until the next Put, Del or DeleteIf on t.
func (t *Table[V]) Ref(a Addr) *V {
	if i := t.find(a); i >= 0 {
		return &t.vals[i]
	}
	return nil
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
				t.grow()
			}
			return
		}
	}
}

// Del removes a, returning its value and whether it was present.
func (t *Table[V]) Del(a Addr) (V, bool) {
	i := t.find(a)
	if i < 0 {
		var zero V
		return zero, false
	}
	v := t.vals[i]
	t.delAt(i)
	return v, true
}

// delAt empties slot i, which holds an entry, and closes the hole.
func (t *Table[V]) delAt(i int) {
	var zero V
	mask := len(t.keys) - 1
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
}

// DeleteIf removes every entry whose value drop reports true, in place.
func (t *Table[V]) DeleteIf(drop func(V) bool) {
	for i := 0; i < len(t.keys); i++ {
		// delAt may shift a later entry into slot i, so slot i is checked
		// again until it is empty or kept.
		for t.keys[i] != 0 && drop(t.vals[i]) {
			t.delAt(i)
		}
	}
}

// grow re-inserts every entry into fresh arrays of the smallest power of
// two that holds 4×(live+1) slots.
func (t *Table[V]) grow() {
	slots := len(t.keys)
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
