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
	// live is the heap's latest Mark while no Rewind to another mark has
	// superseded it; its undo log sees every write (see Mark).
	live *Mark
}

// UnallocatedError is the panic value of a data-plane access (Bytes,
// Uint64, PutUint64, PutBytes and every Session access) that reaches
// past the heap's allocated cachelines: the bytes [Off, Off+N) from the
// heap's base were never allocated, or were carved out to a child heap.
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

// Bytes returns the backing bytes for [addr, addr+n), for reading only:
// every write goes through PutUint64 or PutBytes, so that the live Mark
// sees it. The slice aliases the heap until its next write, Alloc or
// Rewind. Bytes panics with an UnallocatedError when the range reaches
// past the allocated cachelines, whatever the capacity.
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
	binary.LittleEndian.PutUint64(h.writable(addr, 8), v)
}

// PutBytes copies data into the heap at addr. It panics like Bytes.
func (h *Heap) PutBytes(addr mem.Addr, data []byte) {
	copy(h.writable(addr, len(data)), data)
}

// writable is Bytes for a write: it first has the live mark, if any,
// save the original content of the lines the write changes.
func (h *Heap) writable(addr mem.Addr, n int) []byte {
	b := h.Bytes(addr, n)
	if h.live != nil {
		h.live.save(h.buf, uint64(addr-h.base), n)
	}
	return b
}

// Mark is a heap image: the heap's allocation pointer and its bytes
// below it, as they stood when Heap.Mark took it. Past the pointer the
// image reads zero, even in the cacheline that holds it.
//
// The latest Mark of a heap is its live mark, an undo log: the first
// write after it to each line below the pointer saves the line's
// original bytes, so it costs what the heap has written since. A later
// Mark, or a Rewind to another mark, supersedes it, and it then freezes
// into a full copy of the image.
type Mark struct {
	h   *Heap
	off uint64
	// While the mark is live, saved holds the original bytes of every
	// line below off written since, a cacheline each, and slot maps a
	// line's offset to its bytes' offset in saved.
	slot  map[uint64]int
	saved []byte
	// image is the frozen copy of the heap's first off bytes.
	image []byte
}

// save records the original content of the lines of buf, the heap's
// backing, that the n bytes at off overlap below the mark's pointer.
func (m *Mark) save(buf []byte, off uint64, n int) {
	for line := off &^ (mem.CachelineSize - 1); line < min(off+uint64(n), m.off); line += mem.CachelineSize {
		if _, ok := m.slot[line]; ok {
			continue
		}
		at := len(m.saved)
		m.slot[line] = at
		m.saved = append(m.saved, make([]byte, mem.CachelineSize)...)
		copy(m.saved[at:], buf[line:])
	}
}

// restore copies the saved lines back into dst, the heap's bytes from
// its base, as far as dst reaches.
func (m *Mark) restore(dst []byte) {
	for line, at := range m.slot {
		if line < uint64(len(dst)) {
			copy(dst[line:], m.saved[at:at+mem.CachelineSize])
		}
	}
}

// mine panics unless m is nil or a mark of h.
func (h *Heap) mine(m *Mark) {
	if m != nil && m.h != h {
		panic(fmt.Sprintf("pmem: %s heap given a mark of another heap", h.name))
	}
}

// Mark records the heap's image, its allocated prefix, and returns it:
// Rewind(mark) restores it, CloneWith builds a heap from it and
// ReadMarked reads it. The mark is the heap's live mark until
// superseded (see Mark).
func (h *Heap) Mark() *Mark {
	h.freeze()
	m := &Mark{h: h, off: h.off, slot: make(map[uint64]int)}
	h.live = m
	return m
}

// freeze turns the live mark, if any, into a full copy and stops
// logging writes.
func (h *Heap) freeze() {
	m := h.live
	if m == nil {
		return
	}
	m.image = append([]byte(nil), h.buf[:m.off]...)
	m.restore(m.image)
	m.slot, m.saved = nil, nil
	h.live = nil
}

// Rewind returns the heap to the image mark recorded: the marked bytes
// are restored, everything allocated since is zeroed, and the next
// Alloc starts at the mark's allocation pointer. Rewind(nil) discards
// every allocation. Writes that stayed inside the heap's allocations
// are all undone, so a sweep can prebuild a data structure once and
// rewind to it per cell. Rewinding to the live mark copies back only
// the lines written since and keeps the mark live; rewinding to any
// other mark first freezes the live one. It panics when mark belongs
// to another heap.
func (h *Heap) Rewind(mark *Mark) {
	h.mine(mark)
	var off uint64
	if mark != nil {
		off = mark.off
	}
	live := mark != nil && mark == h.live
	if live {
		mark.restore(h.buf)
		clear(mark.slot)
		mark.saved = mark.saved[:0]
	} else {
		h.freeze()
	}
	clear(h.buf[min(off, uint64(len(h.buf))):])
	h.off = off
	h.fit()
	if mark != nil && !live {
		copy(h.buf, mark.image)
	}
}

// ReadMarked copies into dst the bytes at addr as they stand in mark's
// image: the marked bytes, and zeros past the mark's allocation
// pointer. It panics like Rewind.
func (h *Heap) ReadMarked(mark *Mark, addr mem.Addr, dst []byte) {
	h.mine(mark)
	clear(dst)
	off := uint64(addr - h.base)
	if mark == nil || off >= mark.off {
		return
	}
	end := min(off+uint64(len(dst)), mark.off)
	if mark != h.live {
		copy(dst, mark.image[off:end])
		return
	}
	copy(dst, h.buf[off:end])
	for line := off &^ (mem.CachelineSize - 1); line < end; line += mem.CachelineSize {
		if at, ok := mark.slot[line]; ok {
			lo, hi := max(line, off), min(line+mem.CachelineSize, end)
			copy(dst[lo-off:hi-off], mark.saved[at+int(lo-line):])
		}
	}
}

// CloneWith builds a heap with h's base, name, capacity and allocation
// pointer — so recovery code running on the clone can allocate without
// overlapping live regions — holding mark's image and zeros past it.
// mark is a Mark of h taken when h had allocated no more than it has
// now; the crash subsystem clones its baseline marks this way. It
// panics like Rewind.
func (h *Heap) CloneWith(mark *Mark) *Heap {
	h.mine(mark)
	c := &Heap{name: h.name, base: h.base, size: h.size, off: h.off}
	c.fit()
	switch {
	case mark == nil:
	case mark == h.live:
		n := copy(c.buf, h.buf[:mark.off])
		mark.restore(c.buf[:n])
	default:
		copy(c.buf, mark.image)
	}
	return c
}
