// Package kvstore is a log-structured persistent key-value store in the
// style of FlatStore (Chen et al., ASPLOS '20), which the paper's
// related-work section discusses as the canonical "coalesce small
// writes into full XPLines" design. Values are appended to a PM log;
// a CCEH table indexes key -> log offset.
//
// Two append modes demonstrate the paper's §3.2 takeaway:
//
//   - PerOp: each record is persisted individually — small partial-
//     XPLine writes that leave write-buffer occupancy and RMW evictions
//     to the DIMM.
//   - Batched: records accumulate in a volatile buffer and are flushed
//     as full, XPLine-aligned nt-store bursts under a single fence
//     (FlatStore's horizontal batching).
//
// An instructive outcome of simulating this on the paper's DIMM model:
// because the log is append-only, even the per-op records land on
// consecutive cachelines and the on-DIMM write-combining buffer
// coalesces them into full XPLines anyway (§3.2's mechanism working as
// designed). Batching's measurable win is therefore in persistence
// barriers — one fence per XPLine instead of per record — which the
// kvstore tests and example quantify.
package kvstore

import (
	"fmt"

	"optanesim/internal/cceh"
	"optanesim/internal/mem"
	"optanesim/internal/pmem"
)

// AppendMode selects the log persistence strategy.
type AppendMode int

// The two §3.2-motivated strategies.
const (
	PerOp AppendMode = iota
	Batched
)

func (m AppendMode) String() string {
	if m == Batched {
		return "batched (XPLine-coalesced)"
	}
	return "per-op"
}

// recordBytes is the fixed log record: key, value, valid flag padding —
// a quarter XPLine, so four records coalesce into one full XPLine.
const recordBytes = mem.CachelineSize

// batchRecords is FlatStore-style horizontal batching: one full XPLine.
const batchRecords = mem.XPLineSize / recordBytes

// Store is one KV-store instance.
type Store struct {
	mode  AppendMode
	heap  *pmem.Heap
	index *cceh.Table

	logBase mem.Addr
	logCap  uint64
	logOff  uint64

	// Volatile batch staging (Batched mode).
	pendingKeys []uint64
	pendingVals []uint64
}

// New builds a store with a value log of logBytes.
func New(s *pmem.Session, h *pmem.Heap, mode AppendMode, logBytes uint64) *Store {
	return &Store{
		mode:    mode,
		heap:    h,
		index:   cceh.New(s, h, 6),
		logBase: h.Alloc(logBytes, mem.XPLineSize),
		logCap:  logBytes,
	}
}

// Mode returns the append mode.
func (st *Store) Mode() AppendMode { return st.mode }

// LogBase returns the PM address of the value log, for RecoverIndex.
func (st *Store) LogBase() mem.Addr { return st.logBase }

// LogCap returns the capacity of the value log in bytes.
func (st *Store) LogCap() uint64 { return st.logCap }

// BatchRecords is the number of records coalesced per XPLine in
// Batched mode; at most BatchRecords-1 acknowledged puts may still be
// volatile at any instant.
const BatchRecords = batchRecords

// Put appends key/value to the log and indexes it. In Batched mode the
// record may remain volatile until the batch fills or Sync is called.
func (st *Store) Put(s *pmem.Session, key, value uint64) error {
	if key == 0 {
		return fmt.Errorf("kvstore: zero key is reserved")
	}
	switch st.mode {
	case PerOp:
		rec, err := st.appendRecord(s, key, value)
		if err != nil {
			return err
		}
		// Persist the record, then index it.
		s.Flush(rec, recordBytes)
		s.Fence()
		if err := st.index.Insert(s, key, uint64(rec)); err != nil {
			return err
		}
	case Batched:
		st.pendingKeys = append(st.pendingKeys, key)
		st.pendingVals = append(st.pendingVals, value)
		if len(st.pendingKeys) >= batchRecords {
			if err := st.Sync(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sync drains the volatile batch: records are written back-to-back as
// full XPLines with non-temporal stores, persisted with one fence, and
// then indexed.
func (st *Store) Sync(s *pmem.Session) error {
	if st.mode != Batched || len(st.pendingKeys) == 0 {
		return nil
	}
	recs := make([]mem.Addr, 0, len(st.pendingKeys))
	for i, k := range st.pendingKeys {
		rec, err := st.appendRecordNT(s, k, st.pendingVals[i])
		if err != nil {
			return err
		}
		recs = append(recs, rec)
	}
	s.Fence() // one barrier for the whole XPLine-aligned burst
	for i, k := range st.pendingKeys {
		if err := st.index.Insert(s, k, uint64(recs[i])); err != nil {
			return err
		}
	}
	st.pendingKeys = st.pendingKeys[:0]
	st.pendingVals = st.pendingVals[:0]
	return nil
}

// appendRecord bump-allocates and writes one record with cacheable
// stores.
func (st *Store) appendRecord(s *pmem.Session, key, value uint64) (mem.Addr, error) {
	if st.logOff+recordBytes > st.logCap {
		return 0, fmt.Errorf("kvstore: log full")
	}
	rec := st.logBase + mem.Addr(st.logOff)
	st.logOff += recordBytes
	s.Poke64(rec, key)
	s.Poke64(rec+8, value)
	s.Poke64(rec+16, 1) // valid
	s.StoreLine(rec)
	return rec, nil
}

// appendRecordNT writes one record with a non-temporal store (the
// batched path's XPLine-aligned burst).
func (st *Store) appendRecordNT(s *pmem.Session, key, value uint64) (mem.Addr, error) {
	if st.logOff+recordBytes > st.logCap {
		return 0, fmt.Errorf("kvstore: log full")
	}
	rec := st.logBase + mem.Addr(st.logOff)
	st.logOff += recordBytes
	s.Poke64(rec, key)
	s.Poke64(rec+8, value)
	s.Poke64(rec+16, 1)
	s.NTStore64(rec, key) // one nt-store covers the 64 B record
	return rec, nil
}

// Get returns the most recent value for key.
func (st *Store) Get(s *pmem.Session, key uint64) (uint64, bool) {
	// Batched mode may still hold the key volatile.
	for i := len(st.pendingKeys) - 1; i >= 0; i-- {
		if st.pendingKeys[i] == key {
			return st.pendingVals[i], true
		}
	}
	rec, ok := st.index.Lookup(s, key)
	if !ok {
		return 0, false
	}
	addr := mem.Addr(rec)
	s.LoadLine(addr)
	if s.Peek64(addr) != key || s.Peek64(addr+16) == 0 {
		return 0, false
	}
	return s.Peek64(addr + 8), true
}

// RecoverIndex rebuilds the index from the log after a crash: every
// valid record is replayed in order (later records win).
func RecoverIndex(s *pmem.Session, h *pmem.Heap, mode AppendMode, logBase mem.Addr, logBytes, usedBytes uint64) (*Store, error) {
	st := &Store{
		mode:    mode,
		heap:    h,
		index:   cceh.New(s, h, 6),
		logBase: logBase,
		logCap:  logBytes,
		logOff:  usedBytes,
	}
	for off := uint64(0); off+recordBytes <= usedBytes; off += recordBytes {
		rec := logBase + mem.Addr(off)
		s.LoadLine(rec)
		if s.Peek64(rec+16) == 0 {
			continue // torn/unused slot
		}
		key := s.Peek64(rec)
		if key == 0 {
			continue
		}
		if err := st.index.Insert(s, key, uint64(rec)); err != nil {
			return nil, err
		}
	}
	return st, nil
}
