// Package mem defines the memory geometry and operation vocabulary shared
// by the whole simulator: byte addresses, 64-byte cachelines, 256-byte
// XPLines (the 3D-XPoint media access granule), the CPU memory
// operations the simulated machine executes, and Table, the address-keyed
// table under every per-line lookup.
package mem

import "fmt"

// Fundamental access granularities of the modeled platform.
const (
	// CachelineSize is the CPU access granularity in bytes.
	CachelineSize = 64
	// XPLineSize is the 3D-XPoint media access granularity in bytes.
	XPLineSize = 256
	// LinesPerXPLine is the number of cachelines in one XPLine.
	LinesPerXPLine = XPLineSize / CachelineSize
)

// Addr is a byte address in the simulated physical address space.
//
// The address space is split into a DRAM region and a persistent-memory
// region at PMBase; see the machine package for routing.
type Addr uint64

// PMBase is the first address of the persistent-memory region. Everything
// below it is DRAM.
const PMBase Addr = 1 << 40

// DRAMBase is the first DRAM address handed out: the first page is
// skipped so address 0 is never used.
const DRAMBase Addr = 4096

// IsPM reports whether a falls in the persistent-memory region.
func (a Addr) IsPM() bool { return a >= PMBase }

// Line returns the address rounded down to its cacheline.
func (a Addr) Line() Addr { return a &^ (CachelineSize - 1) }

// XPLine returns the address rounded down to its XPLine.
func (a Addr) XPLine() Addr { return a &^ (XPLineSize - 1) }

// LineInXPLine returns the index (0..3) of a's cacheline within its XPLine.
func (a Addr) LineInXPLine() int {
	return int((a % XPLineSize) / CachelineSize)
}

// String renders the address in hex with a region tag.
func (a Addr) String() string {
	if a.IsPM() {
		return fmt.Sprintf("pm:%#x", uint64(a-PMBase))
	}
	return fmt.Sprintf("dram:%#x", uint64(a))
}

// OpKind enumerates the memory operations of the simulated CPU.
type OpKind uint8

const (
	// OpLoad is an ordinary cacheable load of one cacheline.
	OpLoad OpKind = iota
	// OpStore is an ordinary cacheable store (write-allocate).
	OpStore
	// OpNTStore is a non-temporal store: bypasses the CPU caches and is
	// sent to the memory controller's write pending queue directly.
	OpNTStore
	// OpCLWB writes a dirty cacheline back to memory. On G1 platforms it
	// also invalidates the line (matching observed behaviour); on G2 the
	// line remains cached.
	OpCLWB
	// OpCLFlushOpt writes back (if dirty) and invalidates a cacheline.
	OpCLFlushOpt
	// OpSFence orders stores/flushes: it completes when all prior flushes
	// have been accepted into the ADR domain (the WPQ). Loads are NOT
	// ordered by it.
	OpSFence
	// OpMFence orders loads and stores: like SFence, but subsequent loads
	// may not begin before it completes.
	OpMFence
)

var opKindNames = [...]string{
	OpLoad:       "load",
	OpStore:      "store",
	OpNTStore:    "nt-store",
	OpCLWB:       "clwb",
	OpCLFlushOpt: "clflushopt",
	OpSFence:     "sfence",
	OpMFence:     "mfence",
}

// String returns the conventional mnemonic for the op kind.
func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}
