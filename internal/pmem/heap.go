// Package pmem is the persistent-memory programming layer the case
// studies build on: simulated-address heaps backed by real Go memory (so
// data structures are functionally correct), sessions that couple the
// data plane to a simulated thread's timing plane, and the persist
// helpers (flush+fence) persistent programs use.
package pmem

import (
	"encoding/binary"
	"fmt"

	"optanesim/internal/mem"
)

// Heap is a bump allocator over a contiguous region of the simulated
// address space, backed by a Go byte slice that holds the actual data.
type Heap struct {
	name string
	base mem.Addr
	buf  []byte
	off  uint64
}

// NewPMHeap returns a heap of size bytes in the persistent-memory
// region.
func NewPMHeap(size uint64) *Heap {
	return &Heap{name: "pm", base: mem.PMBase, buf: make([]byte, size)}
}

// NewDRAMHeap returns a heap of size bytes in the DRAM region, starting
// at mem.DRAMBase.
func NewDRAMHeap(size uint64) *Heap {
	return &Heap{name: "dram", base: mem.DRAMBase, buf: make([]byte, size)}
}

// Base returns the heap's first address.
func (h *Heap) Base() mem.Addr { return h.base }

// Size returns the heap's capacity in bytes.
func (h *Heap) Size() uint64 { return uint64(len(h.buf)) }

// Used returns the bytes allocated so far.
func (h *Heap) Used() uint64 { return h.off }

// Alloc reserves n bytes aligned to align (a power of two) and returns
// the first address. It panics when the heap is exhausted — simulation
// workloads size their heaps up front.
func (h *Heap) Alloc(n, align uint64) mem.Addr {
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("pmem: alignment %d is not a power of two", align))
	}
	off := (h.off + align - 1) &^ (align - 1)
	if off+n > uint64(len(h.buf)) {
		panic(fmt.Sprintf("pmem: %s heap exhausted: need %d at %d of %d", h.name, n, off, len(h.buf)))
	}
	h.off = off + n
	return h.base + mem.Addr(off)
}

// Carve reserves size bytes (aligned to align) and returns a heap
// owning exactly that range: the same backing bytes viewed through a
// private bump pointer. Carving a parent heap once per simulated
// thread before Run gives each thread a disjoint slice of the address
// space to allocate from mid-run (e.g. CCEH segment splits), so one
// thread's allocations never shift another's addresses.
func (h *Heap) Carve(size, align uint64) *Heap {
	a := h.Alloc(size, align)
	start := uint64(a - h.base)
	return &Heap{name: h.name, base: a, buf: h.buf[start : start+size]}
}

// Contains reports whether addr falls inside the heap.
func (h *Heap) Contains(addr mem.Addr) bool {
	return addr >= h.base && addr < h.base+mem.Addr(len(h.buf))
}

// Bytes returns the live backing bytes for [addr, addr+n).
func (h *Heap) Bytes(addr mem.Addr, n int) []byte {
	off := int(addr - h.base)
	return h.buf[off : off+n]
}

// Uint64 reads the data-plane value at addr.
func (h *Heap) Uint64(addr mem.Addr) uint64 {
	return binary.LittleEndian.Uint64(h.Bytes(addr, 8))
}

// PutUint64 writes the data-plane value at addr.
func (h *Heap) PutUint64(addr mem.Addr, v uint64) {
	binary.LittleEndian.PutUint64(h.Bytes(addr, 8), v)
}

// Mark returns a copy of the allocated prefix of the heap: its bytes
// and, as the copy's length, its bump pointer. Rewind(mark) restores
// both.
func (h *Heap) Mark() []byte {
	return append([]byte(nil), h.buf[:h.off]...)
}

// Rewind returns the heap to the state Mark recorded: the marked prefix
// is copied back, everything allocated since is zeroed, and the next
// Alloc starts at len(mark). Rewind(nil) discards every allocation.
// Writes that stayed inside the heap's allocations are all undone, so a
// sweep can prebuild a data structure once and rewind to it per cell.
func (h *Heap) Rewind(mark []byte) {
	n := copy(h.buf, mark)
	if h.off > uint64(n) {
		clear(h.buf[n:h.off])
	}
	h.off = uint64(n)
}

// Snapshot returns a copy of the heap's backing bytes (the full data
// plane at this instant). The crash subsystem uses snapshots as the
// durable baseline images it patches survivable writes into.
func (h *Heap) Snapshot() []byte {
	return append([]byte(nil), h.buf...)
}

// CloneWith builds a heap at the same base and name whose contents are a
// copy of data (which must be exactly the heap's size) and whose
// allocation pointer matches the current heap — so recovery code running
// on the clone can allocate without overlapping live regions.
func (h *Heap) CloneWith(data []byte) *Heap {
	if uint64(len(data)) != uint64(len(h.buf)) {
		panic(fmt.Sprintf("pmem: CloneWith size %d != heap size %d", len(data), len(h.buf)))
	}
	return &Heap{
		name: h.name,
		base: h.base,
		buf:  append([]byte(nil), data...),
		off:  h.off,
	}
}
