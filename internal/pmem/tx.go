package pmem

import (
	"fmt"

	"optanesim/internal/mem"
)

// Tx is a failure-atomic undo-log transaction over a session's heaps,
// in the style of PMDK/ArchTM transactions the paper's related work
// discusses. Before a range is modified, its old contents are copied to
// a persistent undo log and persisted; on commit the log is retired; on
// crash, Recover rolls uncommitted updates back.
//
// Undo logging is the mirror image of the B+-tree case study's redo
// logging: the log write happens before the in-place update, so the
// update itself needs no ordering fence of its own — but every first
// touch of a range costs a log append plus a persistence barrier.
type Tx struct {
	s *Session
	h *Heap // heap holding the log

	logBase  mem.Addr
	capacity int

	// entries holds the volatile view of the undo records.
	entries []undoRecord
	active  bool
}

type undoRecord struct {
	addr mem.Addr
	old  []byte
}

// txEntryBytes is one undo record slot: a header cacheline (addr, len)
// followed by up to one cacheline of old data.
const txEntryBytes = 2 * mem.CachelineSize

// txHeaderBytes is the log header: word 0 holds the committed entry
// count (0 = no transaction in flight).
const txHeaderBytes = mem.CachelineSize

// NewTx allocates an undo log with room for capacity entries.
func NewTx(s *Session, h *Heap, capacity int) *Tx {
	if capacity <= 0 {
		capacity = 64
	}
	t := &Tx{
		s:        s,
		h:        h,
		capacity: capacity,
		logBase:  h.Alloc(uint64(txHeaderBytes+capacity*txEntryBytes), mem.CachelineSize),
	}
	return t
}

func (t *Tx) entryAddr(i int) mem.Addr {
	return t.logBase + txHeaderBytes + mem.Addr(i*txEntryBytes)
}

// Begin starts a transaction. Transactions do not nest.
func (t *Tx) Begin() error {
	if t.active {
		return fmt.Errorf("pmem: transaction already active")
	}
	t.entries = t.entries[:0]
	t.active = true
	return nil
}

// Update declares that [addr, addr+n) is about to be modified (n <= 64,
// one cacheline): the old contents are appended to the undo log and
// persisted before the caller's store may proceed.
func (t *Tx) Update(addr mem.Addr, n int) error {
	if !t.active {
		return fmt.Errorf("pmem: Update outside a transaction")
	}
	if n <= 0 || n > mem.CachelineSize || addr.Line() != (addr+mem.Addr(n-1)).Line() {
		return fmt.Errorf("pmem: undo ranges are limited to one cacheline")
	}
	if len(t.entries) >= t.capacity {
		return fmt.Errorf("pmem: undo log full (%d entries)", t.capacity)
	}
	idx := len(t.entries)
	old := append([]byte(nil), t.s.heapFor(addr).Bytes(addr, n)...)
	t.entries = append(t.entries, undoRecord{addr: addr, old: old})

	// Persist the record: header line (addr, len) + old data line.
	e := t.entryAddr(idx)
	t.s.Poke64(e, uint64(addr))
	t.s.Poke64(e+8, uint64(n))
	t.s.heapFor(e).PutBytes(e+mem.CachelineSize, old)
	t.s.StoreLine(e)
	t.s.StoreLine(e + mem.CachelineSize)
	t.s.Flush(e, txEntryBytes)
	t.s.Fence()

	// Publish the entry count so recovery sees a consistent prefix.
	t.s.Store64(t.logBase, uint64(idx+1))
	t.s.Flush(t.logBase, 8)
	t.s.Fence()
	return nil
}

// Store64 is a convenience: undo-log the cacheline, then store the new
// value in place (no extra barrier needed until commit).
func (t *Tx) Store64(addr mem.Addr, v uint64) error {
	if err := t.Update(addr, 8); err != nil {
		return err
	}
	t.s.Store64(addr, v)
	return nil
}

// Commit persists all in-place updates, then retires the log.
func (t *Tx) Commit() error {
	if !t.active {
		return fmt.Errorf("pmem: Commit outside a transaction")
	}
	// Persist the updated home locations (dedup by cacheline, keeping
	// first-touch order for determinism).
	var lines []mem.Addr
	for _, r := range t.entries {
		line := r.addr.Line()
		dup := false
		for _, l := range lines {
			if l == line {
				dup = true
				break
			}
		}
		if !dup {
			lines = append(lines, line)
		}
	}
	for _, l := range lines {
		t.s.Flush(l, mem.CachelineSize)
	}
	t.s.Fence()
	// Retire the log: a committed transaction must not be rolled back.
	t.s.Store64(t.logBase, 0)
	t.s.Flush(t.logBase, 8)
	t.s.Fence()
	t.active = false
	return nil
}

// Abort rolls the in-flight updates back immediately (volatile path) and
// retires the log.
func (t *Tx) Abort() error {
	if !t.active {
		return fmt.Errorf("pmem: Abort outside a transaction")
	}
	t.rollback(len(t.entries))
	t.s.Store64(t.logBase, 0)
	t.s.Flush(t.logBase, 8)
	t.s.Fence()
	t.active = false
	t.entries = t.entries[:0]
	return nil
}

// rollback restores the first n persisted undo records, newest first.
func (t *Tx) rollback(n int) {
	for i := n - 1; i >= 0; i-- {
		e := t.entryAddr(i)
		addr := mem.Addr(t.s.Peek64(e))
		length := int(t.s.Peek64(e + 8))
		if length <= 0 || length > mem.CachelineSize {
			continue
		}
		old := t.s.heapFor(e).Bytes(e+mem.CachelineSize, length)
		t.s.heapFor(addr).PutBytes(addr, old)
		t.s.StoreLine(addr)
		t.s.Flush(addr.Line(), mem.CachelineSize)
	}
	t.s.Fence()
}

// Recover inspects the log after a simulated crash: a non-zero entry
// count means the transaction never committed, so its records are
// rolled back. It returns the number of records undone.
func (t *Tx) Recover() int {
	n := int(t.s.Peek64(t.logBase))
	if n <= 0 || n > t.capacity {
		return 0
	}
	t.rollback(n)
	t.s.Store64(t.logBase, 0)
	t.s.Flush(t.logBase, 8)
	t.s.Fence()
	t.active = false
	t.entries = t.entries[:0]
	return n
}
