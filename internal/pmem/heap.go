// Package pmem is the persistent-memory programming layer the case
// studies build on: simulated-address heaps whose allocations are
// backed by real Go memory (so data structures are functionally
// correct), sessions that couple the data plane to a simulated thread's
// timing plane, and the persist helpers (flush+fence) persistent
// programs use.
package pmem

import (
	"encoding/binary"
	"fmt"

	"optanesim/internal/mem"
)

// Heap is a bump allocator over a contiguous region of the simulated
// address space. Its capacity is reserved address space only: the Go
// byte slice holding the data covers the allocated cachelines (Used
// rounded up to a cacheline) and grows with Alloc, so a heap sized
// generously costs host memory only for what it allocates.
type Heap struct {
	name string
	base mem.Addr
	size uint64
	off  uint64
	// buf backs the allocated cachelines: len(buf) is Used rounded up to
	// a cacheline and capped at size. Growth within cap(buf) is a
	// reslice, so buf[len(buf):cap(buf)] holds what a fresh allocation
	// reads: zeros (Alloc and Rewind keep it so).
	buf []byte
}

// UnallocatedError is the panic value of a data-plane access (Bytes,
// Uint64, PutUint64 and every Session access) that reaches past the
// heap's allocated cachelines: the bytes [Off, Off+N) from the heap's
// base were never allocated, or were carved out to a child heap.
type UnallocatedError struct {
	Heap string
	Off  uint64
	N    int
}

func (e UnallocatedError) Error() string {
	return fmt.Sprintf("pmem: %s heap access of %d bytes at offset %#x is past its allocations", e.Heap, e.N, e.Off)
}

// NewPMHeap returns a heap with a capacity of size bytes in the
// persistent-memory region. It holds no host memory until Alloc.
func NewPMHeap(size uint64) *Heap {
	return &Heap{name: "pm", base: mem.PMBase, size: size}
}

// NewDRAMHeap returns a heap with a capacity of size bytes in the DRAM
// region, starting at mem.DRAMBase. It holds no host memory until
// Alloc.
func NewDRAMHeap(size uint64) *Heap {
	return &Heap{name: "dram", base: mem.DRAMBase, size: size}
}

// Base returns the heap's first address.
func (h *Heap) Base() mem.Addr { return h.base }

// Size returns the heap's capacity in bytes.
func (h *Heap) Size() uint64 { return h.size }

// Used returns the bytes allocated so far.
func (h *Heap) Used() uint64 { return h.off }

// Alloc reserves n bytes aligned to align (a power of two) and returns
// the first address; the bytes read zero until written. It panics when
// the heap is exhausted — simulation workloads size their heaps up
// front.
func (h *Heap) Alloc(n, align uint64) mem.Addr {
	off := h.reserve(n, align)
	h.fit()
	return h.base + mem.Addr(off)
}

// reserve advances the bump pointer past n bytes aligned to align and
// returns the offset of the first, without backing them.
func (h *Heap) reserve(n, align uint64) uint64 {
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("pmem: alignment %d is not a power of two", align))
	}
	off := (h.off + align - 1) &^ (align - 1)
	if off+n > h.size {
		panic(fmt.Sprintf("pmem: %s heap exhausted: need %d at %d of %d", h.name, n, off, h.size))
	}
	h.off = off + n
	return off
}

// fit sizes the backing to the allocated cachelines, growing it
// geometrically (up to the capacity) by copying into a fresh slice.
func (h *Heap) fit() {
	lim := min((h.off+mem.CachelineSize-1)&^(mem.CachelineSize-1), h.size)
	if lim > uint64(cap(h.buf)) {
		buf := make([]byte, lim, min(max(2*uint64(cap(h.buf)), lim), h.size))
		copy(buf, h.buf)
		h.buf = buf
	}
	h.buf = h.buf[:lim]
}

// Carve reserves size bytes (aligned to align) and returns a heap
// owning exactly that range, with its own backing and bump pointer. The
// parent does not back the range, so the child's bytes live only in the
// child, and reading them through the parent panics. Carving a parent
// heap once per simulated thread before Run gives each thread a
// disjoint slice of the address space to allocate from mid-run (e.g.
// CCEH segment splits), so one thread's allocations never shift
// another's addresses.
func (h *Heap) Carve(size, align uint64) *Heap {
	off := h.reserve(size, align)
	return &Heap{name: h.name, base: h.base + mem.Addr(off), size: size}
}

// Contains reports whether addr falls inside the heap's capacity.
func (h *Heap) Contains(addr mem.Addr) bool {
	return addr >= h.base && addr < h.base+mem.Addr(h.size)
}

// Bytes returns the live backing bytes for [addr, addr+n). It panics
// with an UnallocatedError when the range reaches past the allocated
// cachelines, whatever the capacity.
func (h *Heap) Bytes(addr mem.Addr, n int) []byte {
	off := uint64(addr - h.base)
	if off+uint64(n) > uint64(len(h.buf)) {
		panic(UnallocatedError{h.name, off, n})
	}
	return h.buf[off : off+uint64(n)]
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
// and, as the copy's length, its bump pointer. It is the heap's one
// image format: Rewind(mark) restores both, and CloneWith builds a heap
// from one.
func (h *Heap) Mark() []byte {
	return append([]byte(nil), h.buf[:h.off]...)
}

// Rewind returns the heap to the state Mark recorded: the marked prefix
// is copied back, everything allocated since is zeroed, and the next
// Alloc starts at len(mark). Rewind(nil) discards every allocation.
// Writes that stayed inside the heap's allocations are all undone, so a
// sweep can prebuild a data structure once and rewind to it per cell.
// It panics when the mark is longer than the heap's capacity.
func (h *Heap) Rewind(mark []byte) {
	if uint64(len(mark)) > h.size {
		panic(fmt.Sprintf("pmem: %s heap rewound to a %d-byte mark, past its capacity of %d", h.name, len(mark), h.size))
	}
	clear(h.buf[min(len(mark), len(h.buf)):])
	h.off = uint64(len(mark))
	h.fit()
	copy(h.buf, mark)
}

// CloneWith builds a heap with h's base, name, capacity and allocation
// pointer — so recovery code running on the clone can allocate without
// overlapping live regions — holding mark's bytes and zeros past them.
// mark is a Mark of h taken when h had allocated no more than it has
// now; the crash subsystem clones its baseline marks this way.
func (h *Heap) CloneWith(mark []byte) *Heap {
	c := &Heap{name: h.name, base: h.base, size: h.size}
	c.Rewind(mark)
	c.off = h.off
	c.fit()
	return c
}
