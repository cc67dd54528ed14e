// Package optanesim is a software reproduction of "Characterizing the
// Performance of Intel Optane Persistent Memory — A Close Look at its
// On-DIMM Buffering" (Xiang et al., EuroSys '22).
//
// It provides a deterministic, cycle-accounting simulator of the paper's
// two testbeds — CPU cache hierarchies with individually switchable
// prefetchers, integrated memory controllers with read/write pending
// queues and the asynchronous DDR-T protocol, and Optane DCPMM modules
// with their on-DIMM read buffer, write-combining buffer, AIT cache, and
// 3D-XPoint media — plus the persistent data structures of the paper's
// case studies (CCEH with helper-thread prefetching, a FAST & FAIR-style
// B+-tree with redo logging, and XPLine access redirection), and one
// experiment driver per table and figure of the evaluation.
//
// # Quick start
//
//	cfg := optanesim.G1Config(1)
//	sys := optanesim.MustNewSystem(cfg)
//	heap := optanesim.NewPMHeap(1 << 20)
//	sys.Go("demo", 0, false, func(t *optanesim.Thread) {
//		s := optanesim.NewSession(t, heap)
//		s.Store64(heap.Base(), 42)
//		s.Persist(heap.Base(), 8)
//	})
//	cycles := sys.Run()
//
// The paper's experiments run through the cmd/optbench CLI (one per
// table and figure of the evaluation) and through `go test -bench .`,
// which regenerates every result.
package optanesim

import (
	"optanesim/internal/btree"
	"optanesim/internal/cceh"
	"optanesim/internal/dram"
	"optanesim/internal/kvstore"
	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/optane"
	"optanesim/internal/pmem"
	"optanesim/internal/prefetch"
	"optanesim/internal/radix"
	"optanesim/internal/sim"
	"optanesim/internal/trace"
	"optanesim/internal/workload"
	"optanesim/internal/xpline"
)

// Core simulator types.
type (
	// System is one simulated testbed instance.
	System = machine.System
	// Thread is one simulated hardware thread.
	Thread = machine.Thread
	// Config assembles a testbed.
	Config = machine.Config
	// CPUProfile describes the simulated processor.
	CPUProfile = machine.CPUProfile
	// Cycles is simulated time in CPU cycles.
	Cycles = sim.Cycles
	// Addr is a simulated physical address.
	Addr = mem.Addr
	// Counters is the traffic accounting (the ipmwatch equivalent).
	Counters = trace.Counters
	// OptaneProfile parameterizes a DCPMM generation.
	OptaneProfile = optane.Profile
	// DRAMProfile parameterizes the DRAM baseline.
	DRAMProfile = dram.Profile
	// PrefetchConfig selects the active CPU prefetchers.
	PrefetchConfig = prefetch.Config
	// Report summarizes a run's microarchitectural activity
	// (System.Report).
	Report = machine.Report
)

// Persistent-memory programming layer.
type (
	// Heap is a bump allocator over a simulated memory region backed by
	// real bytes.
	Heap = pmem.Heap
	// Session couples a heap (data plane) to a thread (timing plane).
	Session = pmem.Session
)

// Case-study data structures.
type (
	// CCEH is the cacheline-conscious extendible hash table of §4.1.
	CCEH = cceh.Table
	// BTree is the FAST & FAIR-style B+-tree of §4.2.
	BTree = btree.Tree
	// BTreeWriter is a per-thread B+-tree update handle.
	BTreeWriter = btree.Writer
	// BTreeMode selects in-place vs redo-log updates.
	BTreeMode = btree.Mode
	// KVStore is the FlatStore-style log-structured store built from
	// the CCEH index and a PM value log.
	KVStore = kvstore.Store
	// KVAppendMode selects per-op vs XPLine-batched appends.
	KVAppendMode = kvstore.AppendMode
	// RadixTree is the WORT-style persistent radix tree.
	RadixTree = radix.Tree
)

// B+-tree update modes.
const (
	BTreeInPlace = btree.InPlace
	BTreeRedoLog = btree.RedoLog
)

// KV-store append modes.
const (
	KVPerOp   = kvstore.PerOp
	KVBatched = kvstore.Batched
)

// Memory geometry.
const (
	CachelineSize = mem.CachelineSize
	XPLineSize    = mem.XPLineSize
	PMBase        = mem.PMBase
	DRAMBase      = mem.DRAMBase
)

// NewSystem builds a testbed from cfg.
func NewSystem(cfg Config) (*System, error) { return machine.NewSystem(cfg) }

// MustNewSystem is NewSystem for known-good configurations.
func MustNewSystem(cfg Config) *System { return machine.MustNewSystem(cfg) }

// G1Config returns the 1st-generation testbed configuration (Xeon Gold
// 6320-class CPU, 100-series Optane) with n cores.
func G1Config(cores int) Config { return machine.G1Config(cores) }

// G2Config returns the 2nd-generation testbed configuration (Xeon Gold
// 5317-class CPU, 200-series Optane) with n cores.
func G2Config(cores int) Config { return machine.G2Config(cores) }

// OptaneG1 and OptaneG2 return the DIMM profiles the paper
// characterizes.
func OptaneG1() OptaneProfile { return optane.G1() }

// OptaneG2 returns the 200-series DIMM profile.
func OptaneG2() OptaneProfile { return optane.G2() }

// NewPMHeap returns a heap in the persistent-memory region.
func NewPMHeap(size uint64) *Heap { return pmem.NewPMHeap(size) }

// NewDRAMHeap returns a heap in the DRAM region.
func NewDRAMHeap(size uint64) *Heap { return pmem.NewDRAMHeap(size) }

// NewSession couples a thread to one or more heaps.
func NewSession(t *Thread, heaps ...*Heap) *Session { return pmem.NewSession(t, heaps...) }

// NewFreeSession returns a data-plane-only session (no simulated time).
func NewFreeSession(heaps ...*Heap) *Session { return pmem.NewFreeSession(heaps...) }

// NewCCEH builds the §4.1 hash table with 2^initialDepth segments.
func NewCCEH(s *Session, h *Heap, initialDepth uint) *CCEH { return cceh.New(s, h, initialDepth) }

// CCEHHeapFor sizes a heap for n keys.
func CCEHHeapFor(n int) uint64 { return cceh.HeapFor(n) }

// CCEHHelper runs §4.1's speculative helper thread: it replays a
// CCEH.PrefetchPlan, pacing itself against the progress block at prog
// (two 8-byte words; one cacheline holds it) that the worker's
// CCEH.InsertBatch publishes with timed stores.
func CCEHHelper(s *Session, plan [][]Addr, prog Addr) { cceh.HelperPlan(s, plan, prog) }

// NewBTree builds the §4.2 B+-tree with the given update mode.
func NewBTree(s *Session, h *Heap, mode BTreeMode) *BTree { return btree.New(s, h, mode) }

// NewRadixTree builds a WORT-style radix tree (8-byte-atomic updates,
// no logging).
func NewRadixTree(s *Session, h *Heap) *RadixTree { return radix.New(s, h) }

// RadixHeapFor sizes a heap for n radix-tree keys.
func RadixHeapFor(n int) uint64 { return radix.HeapFor(n) }

// NewKVStore builds the FlatStore-style store with a value log of
// logBytes.
func NewKVStore(s *Session, h *Heap, mode KVAppendMode, logBytes uint64) *KVStore {
	return kvstore.New(s, h, mode, logBytes)
}

// Tx is a failure-atomic undo-log transaction (pmem.Tx).
type Tx = pmem.Tx

// NewTx allocates an undo-log transaction over the session's heap.
func NewTx(s *Session, h *Heap, capacity int) *Tx {
	return pmem.NewTx(s, h, capacity)
}

// SequenceKeys returns n distinct non-zero keys from a bijective mixer.
func SequenceKeys(salt uint64, n int) []uint64 { return workload.SequenceKeys(salt, n) }

// AllPrefetchers enables every CPU prefetcher (the platform default).
func AllPrefetchers() PrefetchConfig { return prefetch.All() }

// NoPrefetchers disables CPU prefetching.
func NoPrefetchers() PrefetchConfig { return prefetch.None() }

// DirectBlockRead reads a 256 B block with ordinary loads (prefetchers
// engaged) and flushes it: §4.3's baseline access path.
func DirectBlockRead(t *Thread, block Addr) { xpline.Direct(t, block) }

// RedirectedBlockRead reads a block via a streaming SIMD copy to the
// one-XPLine DRAM staging buffer at staging (XPLine-aligned, one per
// thread), sidestepping the prefetchers.
func RedirectedBlockRead(t *Thread, block, staging Addr) { xpline.Redirected(t, block, staging) }
