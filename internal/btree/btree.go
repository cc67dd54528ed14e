// Package btree implements the §4.2 case study: a FAST & FAIR-style
// persistent B+-tree whose nodes keep keys sorted in contiguous memory.
// Two insert modes are provided:
//
//   - InPlace: the baseline — each key shift inside a node is followed by
//     a persistence barrier (clwb + sfence). Shifting within a cacheline
//     repeatedly flushes and reloads the same line, which on G1 DCPMM
//     incurs long read-after-persist delays.
//   - RedoLog: the paper's optimization — every shift is recorded
//     out-of-place in a per-writer PM redo log (one entry per fresh
//     cacheline, persisted immediately, mirrored in DRAM), committed
//     with an 8-byte flag, and only then applied to the node, which is
//     persisted once per touched cacheline.
//
// Both modes produce identical tree states; only the persist pattern
// differs.
package btree

import (
	"fmt"

	"optanesim/internal/mem"
	"optanesim/internal/pmem"
)

// Mode selects the leaf-update strategy.
type Mode int

// The §4.2 variants.
const (
	InPlace Mode = iota
	RedoLog
)

func (m Mode) String() string {
	if m == RedoLog {
		return "out-of-place (redo log)"
	}
	return "in-place"
}

// Node geometry: 1 KB nodes — one header cacheline plus 60 sorted
// 16-byte (key, value/child) slots across fifteen cachelines. Large
// nodes are what makes in-place insertion shift-heavy (§4.2).
const (
	NodeBytes = 1024
	// Fanout is the number of slots per node.
	Fanout = (NodeBytes - mem.CachelineSize) / 16
	// headerCount / headerLeaf / headerSibling are byte offsets in the
	// header cacheline.
	headerCount   = 0
	headerLeaf    = 8
	headerSibling = 16
	slotsOffset   = mem.CachelineSize
)

// Tree is one B+-tree instance on a persistent heap.
type Tree struct {
	heap *pmem.Heap
	mode Mode
	root mem.Addr
	// super is the persistent superblock cell holding the root address;
	// recovery reads the root from it, so root switches are persisted
	// before they take effect.
	super mem.Addr

	height int
	splits int
}

// New allocates an empty tree (a single empty leaf as root) plus a
// superblock cell that persistently names the root.
func New(s *pmem.Session, h *pmem.Heap, mode Mode) *Tree {
	t := &Tree{heap: h, mode: mode, height: 1}
	t.super = h.Alloc(mem.CachelineSize, mem.CachelineSize)
	root := t.newNode(s, true)
	t.setRoot(s, root)
	return t
}

// Open rebuilds a tree handle from its persistent superblock (e.g. on a
// post-crash memory image): the root comes from the superblock and the
// height from a leftmost descent. Call Recover afterwards to complete
// any in-flight split.
func Open(s *pmem.Session, h *pmem.Heap, mode Mode, super mem.Addr) *Tree {
	t := &Tree{heap: h, mode: mode, super: super}
	t.root = mem.Addr(s.Peek64(super))
	for n := t.root; ; n = mem.Addr(s.Peek64(slotAddr(n, 0) + 8)) {
		t.height++
		if t.isLeaf(s, n) {
			break
		}
	}
	return t
}

// Root returns the current root node address.
func (t *Tree) Root() mem.Addr { return t.root }

// Super returns the superblock address recovery needs to reopen the
// tree.
func (t *Tree) Super() mem.Addr { return t.super }

// setRoot persists the new root into the superblock (atomic 8-byte
// publish) before adopting it.
func (t *Tree) setRoot(s *pmem.Session, root mem.Addr) {
	s.Poke64(t.super, uint64(root))
	s.StoreLine(t.super)
	s.Persist(t.super, 8)
	t.root = root
}

// Mode returns the tree's update mode.
func (t *Tree) Mode() Mode { return t.mode }

// Height returns the current tree height.
func (t *Tree) Height() int { return t.height }

// Splits returns the number of node splits performed.
func (t *Tree) Splits() int { return t.splits }

func (t *Tree) newNode(s *pmem.Session, leaf bool) mem.Addr {
	n := t.heap.Alloc(NodeBytes, NodeBytes)
	if leaf {
		s.Poke64(n+headerLeaf, 1)
	}
	s.StoreLine(n)
	s.Persist(n, mem.CachelineSize)
	return n
}

func slotAddr(n mem.Addr, i int) mem.Addr {
	return n + slotsOffset + mem.Addr(16*i)
}

func (t *Tree) count(s *pmem.Session, n mem.Addr) int {
	return int(s.Peek64(n + headerCount))
}

func (t *Tree) isLeaf(s *pmem.Session, n mem.Addr) bool {
	return s.Peek64(n+headerLeaf) != 0
}

// search runs a binary search over the node's sorted slots, charging a
// load for the header and for each distinct cacheline the search probes.
// It returns the index of the first slot with key > target.
func (t *Tree) search(s *pmem.Session, n mem.Addr, key uint64) int {
	s.LoadLine(n) // header: count
	cnt := t.count(s, n)
	lo, hi := 0, cnt
	var lastLine mem.Addr
	for lo < hi {
		mid := (lo + hi) / 2
		a := slotAddr(n, mid)
		if line := a.Line(); line != lastLine {
			s.LoadLine(a)
			lastLine = line
		}
		if s.Peek64(a) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// pathEntry records one step of a root-to-leaf descent.
type pathEntry struct {
	node mem.Addr
	idx  int // child slot followed (internal nodes)
}

// descend walks from the root to the leaf for key, recording the path.
// When a key exceeds every separator of an internal node, the walk
// follows the node's sibling pointer (B-link style): mid-split, the
// upper half already lives in the right sibling before the parent
// learns its separator.
func (t *Tree) descend(s *pmem.Session, key uint64) (mem.Addr, []pathEntry) {
	var path []pathEntry
	n := t.root
	for !t.isLeaf(s, n) {
		idx := t.search(s, n, key)
		if idx >= t.count(s, n) {
			if sib := mem.Addr(s.Peek64(n + headerSibling)); sib != 0 {
				s.LoadLine(sib)
				n = sib
				continue
			}
			idx = t.count(s, n) - 1
		}
		path = append(path, pathEntry{node: n, idx: idx})
		n = mem.Addr(s.Peek64(slotAddr(n, idx) + 8))
	}
	return n, path
}

// Get returns the value stored for key. A miss at the leaf's upper
// boundary walks the sibling chain (the FAST & FAIR tolerance for
// in-flight splits whose separator has not reached the parent yet).
func (t *Tree) Get(s *pmem.Session, key uint64) (uint64, bool) {
	leaf, _ := t.descend(s, key)
	for leaf != 0 {
		idx := t.search(s, leaf, key) - 1
		if idx >= 0 && s.Peek64(slotAddr(leaf, idx)) == key {
			return s.Peek64(slotAddr(leaf, idx) + 8), true
		}
		cnt := t.count(s, leaf)
		if cnt > 0 && key <= s.Peek64(slotAddr(leaf, cnt-1)) {
			return 0, false
		}
		leaf = mem.Addr(s.Peek64(leaf + headerSibling))
		if leaf != 0 {
			s.LoadLine(leaf)
		}
	}
	return 0, false
}

// Scan returns up to max keys >= start in ascending order (leaf sibling
// walk), for range-query tests.
func (t *Tree) Scan(s *pmem.Session, start uint64, max int) []uint64 {
	leaf, _ := t.descend(s, start)
	var out []uint64
	for leaf != 0 && len(out) < max {
		s.LoadLine(leaf)
		cnt := t.count(s, leaf)
		for i := 0; i < cnt && len(out) < max; i++ {
			a := slotAddr(leaf, i)
			if k := s.Peek64(a); k >= start {
				if line := a.Line(); line != leaf.Line() {
					s.LoadLine(a)
				}
				out = append(out, k)
			}
		}
		leaf = mem.Addr(s.Peek64(leaf + headerSibling))
	}
	return out
}

// Insert adds key -> val using the tree's update mode. Duplicate keys
// overwrite in place.
func (t *Tree) Insert(w *Writer, key, val uint64) error {
	if key == 0 {
		return fmt.Errorf("btree: zero key is reserved")
	}
	s := w.s
	leaf, path := t.descend(s, key)

	// Overwrite if present.
	idx := t.search(s, leaf, key) - 1
	if idx >= 0 && s.Peek64(slotAddr(leaf, idx)) == key {
		a := slotAddr(leaf, idx)
		s.Poke64(a+8, val)
		s.StoreLine(a)
		s.Persist(a.Line(), mem.CachelineSize)
		return nil
	}

	if t.count(s, leaf) >= Fanout {
		leaf = t.splitLeaf(w, leaf, path, key)
		// Re-descend is unnecessary: splitLeaf returns the destination.
	}
	t.insertIntoLeaf(w, leaf, key, val)
	return nil
}

// insertIntoLeaf performs the sorted in-node insertion with the mode's
// persist pattern. The node is known to have room.
func (t *Tree) insertIntoLeaf(w *Writer, n mem.Addr, key, val uint64) {
	s := w.s
	pos := t.search(s, n, key)
	cnt := t.count(s, n)

	switch t.mode {
	case InPlace:
		// FAST-style shift with a persistence barrier per shifted slot:
		// the repeated load/flush of the same cacheline is the §4.2
		// baseline's RAP bottleneck.
		if pos == cnt {
			// Append: populate the invisible slot, then publish it with
			// the count (atomic 8-byte write).
			a := slotAddr(n, pos)
			s.Poke64(a+8, val)
			s.Poke64(a, key)
			s.StoreLine(a)
			s.Flush(a.Line(), mem.CachelineSize)
			s.FenceOrdered()
		} else {
			// Interior insert. Crash safety of the shift: first duplicate
			// the top pair into the invisible slot and extend the count,
			// so every interior copy that follows has a visible shadow —
			// a torn slot write (8-byte granularity) is then always
			// masked by the intact copy one slot up, because lookups take
			// the LAST slot whose key matches. Values are copied before
			// keys for the same reason.
			src := slotAddr(n, cnt-1)
			dst := slotAddr(n, cnt)
			s.LoadLine(src)
			s.Poke64(dst+8, s.Peek64(src+8))
			s.Poke64(dst, s.Peek64(src))
			s.StoreLine(dst)
			s.Flush(dst.Line(), mem.CachelineSize)
			s.FenceOrdered()
			s.Poke64(n+headerCount, uint64(cnt+1))
			s.StoreLine(n)
			s.Flush(n, mem.CachelineSize)
			s.FenceOrdered()
			for i := cnt - 1; i > pos; i-- {
				src := slotAddr(n, i-1)
				dst := slotAddr(n, i)
				s.LoadLine(src)
				v := s.Peek64(src + 8)
				k := s.Peek64(src)
				s.Poke64(dst+8, v)
				s.Poke64(dst, k)
				s.StoreLine(dst)
				s.Flush(dst.Line(), mem.CachelineSize)
				s.FenceOrdered()
			}
			a := slotAddr(n, pos)
			s.Poke64(a+8, val)
			s.Poke64(a, key)
			s.StoreLine(a)
			s.Flush(a.Line(), mem.CachelineSize)
			s.FenceOrdered()
			return
		}
		s.Poke64(n+headerCount, uint64(cnt+1))
		s.StoreLine(n)
		s.Flush(n, mem.CachelineSize)
		s.FenceOrdered()

	case RedoLog:
		// Out-of-place: log every update, commit, then apply.
		w.beginTxn()
		for i := cnt; i > pos; i-- {
			src := slotAddr(n, i-1)
			s.LoadLine(src)
			w.logUpdate(slotAddr(n, i), s.Peek64(src), s.Peek64(src+8))
		}
		w.logUpdate(slotAddr(n, pos), key, val)
		w.logCount(n, uint64(cnt+1))
		w.commit()
		w.apply()
	}
}

// splitLeaf splits a full leaf, distributing slots evenly, persists both
// halves, threads the sibling pointer, and inserts the separator into
// the parent. It returns the leaf that should receive key.
func (t *Tree) splitLeaf(w *Writer, n mem.Addr, path []pathEntry, key uint64) mem.Addr {
	s := w.s
	right := t.newNode(s, t.isLeaf(s, n))
	cnt := t.count(s, n)
	half := cnt / 2

	// Move the upper half to the new right node (bulk copy, one persist
	// per node — both modes split identically).
	for i := half; i < cnt; i++ {
		src := slotAddr(n, i)
		dst := slotAddr(right, i-half)
		s.LoadLine(src)
		s.Poke64(dst, s.Peek64(src))
		s.Poke64(dst+8, s.Peek64(src+8))
		s.StoreLine(dst)
	}
	s.Poke64(right+headerCount, uint64(cnt-half))
	s.Poke64(right+headerSibling, s.Peek64(n+headerSibling))
	s.StoreLine(right)
	s.Persist(right, NodeBytes)

	// FAST & FAIR split order: publish the sibling pointer first, then
	// shrink the count. A crash between the two leaves transient
	// duplicates (both halves hold the upper keys), which readers
	// tolerate and Recover truncates; the reverse order would cut the
	// count while the chain still bypasses the new node — losing the
	// upper half.
	s.Poke64(n+headerSibling, uint64(right))
	s.Poke64(n+headerCount, uint64(half))
	s.StoreLine(n)
	s.Persist(n, mem.CachelineSize)

	sep := s.Peek64(slotAddr(right, 0))
	t.insertIntoParent(w, path, n, sep, right)
	t.splits++

	if key >= sep {
		return right
	}
	return n
}

// insertIntoParent threads (sep, right) into the parent of n, splitting
// upward as needed.
func (t *Tree) insertIntoParent(w *Writer, path []pathEntry, n mem.Addr, sep uint64, right mem.Addr) {
	s := w.s
	if len(path) == 0 {
		// Split the root: the new root has two children with
		// separators (sep, maximum sentinel).
		newRoot := t.newNode(s, false)
		s.Poke64(slotAddr(newRoot, 0), sep)
		s.Poke64(slotAddr(newRoot, 0)+8, uint64(n))
		s.Poke64(slotAddr(newRoot, 1), ^uint64(0))
		s.Poke64(slotAddr(newRoot, 1)+8, uint64(right))
		s.Poke64(newRoot+headerCount, 2)
		s.StoreLine(slotAddr(newRoot, 0))
		s.StoreLine(newRoot)
		s.Persist(newRoot, 2*mem.CachelineSize)
		// The root switch is published through the superblock only after
		// the new root is durable; a crash in between recovers the old
		// root, whose sibling chain still reaches every key.
		t.setRoot(s, newRoot)
		t.height++
		return
	}

	parent := path[len(path)-1].node
	if t.count(s, parent) >= Fanout {
		parent = t.splitInternal(w, parent, path[:len(path)-1], sep)
	}
	t.insertSeparator(w, parent, sep, right, n)
}

// insertSeparator inserts (sep -> right) into internal node parent: the
// slot currently routing to n gets key sep -> n, and a new slot after it
// routes the upper range to right. Internal updates use bulk shifts with
// a single persist (internal nodes tolerate reconstruction; the paper's
// RAP pathology concerns leaf-order shifts, but we keep the same mode
// split for symmetry).
func (t *Tree) insertSeparator(w *Writer, parent mem.Addr, sep uint64, right, left mem.Addr) {
	s := w.s
	cnt := t.count(s, parent)
	pos := t.search(s, parent, sep)

	if t.mode == InPlace {
		for i := cnt; i > pos; i-- {
			src := slotAddr(parent, i-1)
			dst := slotAddr(parent, i)
			s.LoadLine(src)
			s.Poke64(dst, s.Peek64(src))
			s.Poke64(dst+8, s.Peek64(src+8))
			s.StoreLine(dst)
			s.Flush(dst.Line(), mem.CachelineSize)
			s.FenceOrdered()
		}
	} else {
		w.beginTxn()
		for i := cnt; i > pos; i-- {
			src := slotAddr(parent, i-1)
			s.LoadLine(src)
			w.logUpdate(slotAddr(parent, i), s.Peek64(src), s.Peek64(src+8))
		}
		w.commit()
		w.apply()
	}
	// The displaced slot at pos routed some range to `left`'s old
	// coverage; after the shift, slot pos becomes (sep -> left) and slot
	// pos+1 keeps its key but routes to right.
	a := slotAddr(parent, pos)
	s.Poke64(a, sep)
	s.Poke64(a+8, uint64(left))
	next := slotAddr(parent, pos+1)
	s.Poke64(next+8, uint64(right))
	s.StoreLine(a)
	s.StoreLine(next)
	s.Poke64(parent+headerCount, uint64(cnt+1))
	s.StoreLine(parent)
	s.Persist(a.Line(), mem.CachelineSize)
	if next.Line() != a.Line() {
		s.Persist(next.Line(), mem.CachelineSize)
	}
	s.Persist(parent, mem.CachelineSize)
}

// splitInternal splits a full internal node and returns the half that
// should receive sep.
func (t *Tree) splitInternal(w *Writer, n mem.Addr, path []pathEntry, sep uint64) mem.Addr {
	s := w.s
	right := t.newNode(s, false)
	cnt := t.count(s, n)
	half := cnt / 2

	for i := half; i < cnt; i++ {
		src := slotAddr(n, i)
		dst := slotAddr(right, i-half)
		s.LoadLine(src)
		s.Poke64(dst, s.Peek64(src))
		s.Poke64(dst+8, s.Peek64(src+8))
		s.StoreLine(dst)
	}
	s.Poke64(right+headerCount, uint64(cnt-half))
	s.Poke64(right+headerSibling, s.Peek64(n+headerSibling))
	s.StoreLine(right)
	s.Persist(right, NodeBytes)

	// Same split order as leaves: sibling pointer before count, so the
	// upper half stays reachable through the chain at every crash point.
	s.Poke64(n+headerSibling, uint64(right))
	s.Poke64(n+headerCount, uint64(half))
	s.StoreLine(n)
	s.Persist(n, mem.CachelineSize)

	// The separator promoted upward is the last key of the left half.
	promoted := s.Peek64(slotAddr(n, half-1))
	t.insertIntoParent(w, path, n, promoted, right)
	t.splits++

	if sep >= promoted {
		return right
	}
	return n
}

// Delete removes key from the tree, reporting whether it was present.
// Like FAST & FAIR, deletion shifts the remaining slots left (leaving
// nodes possibly underfull — no rebalancing), with the tree's persist
// pattern: per-shift barriers in place, or a redo transaction.
func (t *Tree) Delete(w *Writer, key uint64) bool {
	s := w.s
	leaf, _ := t.descend(s, key)
	idx := t.search(s, leaf, key) - 1
	if idx < 0 || s.Peek64(slotAddr(leaf, idx)) != key {
		return false
	}
	cnt := t.count(s, leaf)

	switch t.mode {
	case InPlace:
		for i := idx; i < cnt-1; i++ {
			src := slotAddr(leaf, i+1)
			dst := slotAddr(leaf, i)
			s.LoadLine(src)
			s.Poke64(dst, s.Peek64(src))
			s.Poke64(dst+8, s.Peek64(src+8))
			s.StoreLine(dst)
			s.Flush(dst.Line(), mem.CachelineSize)
			s.FenceOrdered()
		}
		// Shrink the count first (atomic publish of the deletion), then
		// zero the now-invisible slot; the reverse order would expose a
		// zero key at the top of the node across a crash.
		s.Poke64(leaf+headerCount, uint64(cnt-1))
		s.StoreLine(leaf)
		s.Flush(leaf, mem.CachelineSize)
		s.FenceOrdered()
		last := slotAddr(leaf, cnt-1)
		s.Poke64(last, 0)
		s.Poke64(last+8, 0)
		s.StoreLine(last)
		s.Flush(last.Line(), mem.CachelineSize)
		s.FenceOrdered()

	case RedoLog:
		w.beginTxn()
		for i := idx; i < cnt-1; i++ {
			src := slotAddr(leaf, i+1)
			s.LoadLine(src)
			w.logUpdate(slotAddr(leaf, i), s.Peek64(src), s.Peek64(src+8))
		}
		w.logUpdate(slotAddr(leaf, cnt-1), 0, 0)
		w.logCount(leaf, uint64(cnt-1))
		w.commit()
		w.apply()
	}
	return true
}

// Len counts stored keys by walking the leaf chain through the data
// plane (no simulated time).
func (t *Tree) Len(s *pmem.Session) int {
	n := 0
	leaf := t.leftmostLeaf(s)
	for leaf != 0 {
		n += t.count(s, leaf)
		leaf = mem.Addr(s.Peek64(leaf + headerSibling))
	}
	return n
}

// leftmostLeaf descends the first-child spine.
func (t *Tree) leftmostLeaf(s *pmem.Session) mem.Addr {
	n := t.root
	for !t.isLeaf(s, n) {
		n = mem.Addr(s.Peek64(slotAddr(n, 0) + 8))
	}
	return n
}

// Validate checks the tree's structural invariants through the data
// plane: keys sorted within every node, counts within bounds, leaf
// sibling chain sorted globally, and internal separators bounding their
// subtrees. It returns the first violation.
//
// FAST & FAIR tolerances apply: equal adjacent keys (transient
// duplicates of an in-flight shift) are legal, and duplicated separator
// entries skip revalidation. On a post-crash image run Recover first to
// retire the transient states.
func (t *Tree) Validate(s *pmem.Session) error {
	if err := t.validateNode(s, t.root, 0, ^uint64(0)); err != nil {
		return err
	}
	// Leaf chain sorted globally.
	leaf := t.leftmostLeaf(s)
	last := uint64(0)
	for leaf != 0 {
		cnt := t.count(s, leaf)
		for i := 0; i < cnt; i++ {
			k := s.Peek64(slotAddr(leaf, i))
			if k < last {
				return fmt.Errorf("btree: leaf chain unsorted (%d after %d)", k, last)
			}
			last = k
		}
		leaf = mem.Addr(s.Peek64(leaf + headerSibling))
	}
	return nil
}

func (t *Tree) validateNode(s *pmem.Session, n mem.Addr, lo, hi uint64) error {
	cnt := t.count(s, n)
	if cnt < 0 || cnt > Fanout {
		return fmt.Errorf("btree: node %v count %d out of bounds", n, cnt)
	}
	var prev uint64
	for i := 0; i < cnt; i++ {
		k := s.Peek64(slotAddr(n, i))
		if i > 0 && k < prev {
			return fmt.Errorf("btree: node %v keys unsorted at %d", n, i)
		}
		prev = k
	}
	if t.isLeaf(s, n) {
		for i := 0; i < cnt; i++ {
			k := s.Peek64(slotAddr(n, i))
			if k < lo || k > hi {
				return fmt.Errorf("btree: leaf key %d outside separator range [%d,%d]", k, lo, hi)
			}
		}
		return nil
	}
	childLo := lo
	var prevSep uint64
	var prevChild mem.Addr
	for i := 0; i < cnt; i++ {
		sep := s.Peek64(slotAddr(n, i))
		child := mem.Addr(s.Peek64(slotAddr(n, i) + 8))
		if !t.heap.Contains(child) {
			return fmt.Errorf("btree: node %v child %d outside the heap", n, i)
		}
		if i > 0 && (child == prevChild || sep == prevSep) {
			// Transient duplicate from an in-flight separator shift: the
			// subtree was already validated under its other entry.
			childLo, prevSep, prevChild = sep, sep, child
			continue
		}
		childHi := sep
		if childHi > 0 {
			childHi--
		}
		if childHi > hi {
			childHi = hi
		}
		if childLo <= childHi {
			if err := t.validateNode(s, child, childLo, childHi); err != nil {
				return err
			}
		}
		childLo, prevSep, prevChild = sep, sep, child
	}
	return nil
}

// Recover completes in-flight structural changes on a (possibly
// post-crash) tree image: at every level it truncates transient
// duplicates a crashed split left behind (a node whose upper keys
// already moved to its sibling but whose count was not yet shrunk) and
// drops trailing zero-key slots a crashed deletion left visible. It
// returns the number of nodes repaired. Redo-log replay is separate —
// run Writer.Recover first.
func (t *Tree) Recover(s *pmem.Session) int {
	repaired := 0
	for level := t.root; level != 0; {
		for n := level; n != 0; n = mem.Addr(s.Peek64(n + headerSibling)) {
			cnt := t.count(s, n)
			if cnt > Fanout {
				cnt = Fanout
			}
			// Keys at or above the sibling's first key are the stale
			// lower copies of a split that never shrank the count.
			if sib := mem.Addr(s.Peek64(n + headerSibling)); sib != 0 && t.count(s, sib) > 0 {
				sibFirst := s.Peek64(slotAddr(sib, 0))
				for cnt > 0 && s.Peek64(slotAddr(n, cnt-1)) >= sibFirst {
					cnt--
				}
			}
			for cnt > 0 && s.Peek64(slotAddr(n, cnt-1)) == 0 && t.isLeaf(s, n) {
				cnt--
			}
			if cnt != t.count(s, n) {
				s.Poke64(n+headerCount, uint64(cnt))
				s.StoreLine(n)
				s.Persist(n, mem.CachelineSize)
				repaired++
			}
		}
		if t.isLeaf(s, level) {
			break
		}
		level = mem.Addr(s.Peek64(slotAddr(level, 0) + 8))
	}
	return repaired
}
