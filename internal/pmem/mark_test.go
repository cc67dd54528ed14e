package pmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

// heapModel is the reference for heap images: a heap whose every mark
// is a full copy of the allocated prefix.
type heapModel struct {
	size, off uint64
	buf       []byte // size bytes, zero past the allocated lines
}

type modelMark struct {
	off   uint64
	image []byte
}

// lim is the end of the allocated lines, the bytes the heap backs.
func (m *heapModel) lim() uint64 {
	return min((m.off+mem.CachelineSize-1)&^(mem.CachelineSize-1), m.size)
}

func (m *heapModel) mark() *modelMark {
	return &modelMark{off: m.off, image: append([]byte(nil), m.buf[:m.off]...)}
}

func (m *heapModel) rewind(mk *modelMark) {
	var off uint64
	if mk != nil {
		off = mk.off
		copy(m.buf, mk.image)
	}
	clear(m.buf[off:])
	m.off = off
}

// clone returns the allocated lines of a clone of mk: its image, zeros
// past it, up to the lines the model has allocated now.
func (m *heapModel) clone(mk *modelMark) []byte {
	c := make([]byte, m.lim())
	if mk != nil {
		copy(c, mk.image)
	}
	return c
}

// sameHeap fails unless h holds exactly the model's allocation pointer
// and allocated lines.
func sameHeap(t *testing.T, step string, h *Heap, used uint64, lines []byte) {
	t.Helper()
	if h.Used() != used {
		t.Fatalf("%s: used %d, model %d", step, h.Used(), used)
	}
	if got := h.Bytes(h.Base(), len(lines)); !bytes.Equal(got, lines) {
		for i := range lines {
			if got[i] != lines[i] {
				t.Fatalf("%s: byte %#x is %#x, model %#x", step, i, got[i], lines[i])
			}
		}
	}
	wantUnallocated(t, h, h.Base()+mem.Addr(len(lines)), func() { h.Bytes(h.Base()+mem.Addr(len(lines)), 1) })
}

// TestHeapMarksMatchModel runs random sequences of allocations, writes,
// marks, rewinds and clones, and compares the heap after every step with
// a model that keeps each mark as a full copy. The writes include bytes
// past Used in the line that holds the live mark's end, and the rewinds
// go to the live mark, to superseded marks and to the empty mark.
func TestHeapMarksMatchModel(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := sim.NewRand(seed)
		// Not a whole number of lines: the last line is short.
		size := uint64(4096 + 37)
		h := NewPMHeap(size)
		m := &heapModel{size: size, buf: make([]byte, size)}
		type pair struct {
			h *Mark
			m *modelMark
		}
		var marks []pair
		live := -1 // index of the heap's live mark in marks, or -1
		write := func(off uint64, n int) {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(r.Intn(255) + 1)
			}
			if n == 8 && r.Intn(2) == 0 {
				h.PutUint64(h.Base()+mem.Addr(off), binary.LittleEndian.Uint64(data))
			} else {
				h.PutBytes(h.Base()+mem.Addr(off), data)
			}
			copy(m.buf[off:], data)
		}
		for step := 0; step < 300; step++ {
			var did string
			switch k := r.Intn(20); {
			case k < 3:
				align := []uint64{1, 8, 64}[r.Intn(3)]
				n := uint64(1 + r.Intn(200))
				off := (m.off + align - 1) &^ (align - 1)
				if off+n > size {
					continue
				}
				if got := h.Alloc(n, align); got != h.Base()+mem.Addr(off) {
					t.Fatalf("seed %d step %d: alloc at %#x, model %#x", seed, step, got-h.Base(), off)
				}
				m.off = off + n
				did = fmt.Sprintf("alloc %d align %d", n, align)
			case k < 9:
				lim := m.lim()
				if lim == 0 {
					continue
				}
				n := 8
				if k >= 6 {
					n = 1 + r.Intn(150)
				}
				n = min(n, int(lim))
				off := uint64(r.Intn(int(lim) - n + 1))
				write(off, n)
				did = fmt.Sprintf("write %d at %#x", n, off)
			case k < 11:
				// Bytes past Used in its line, or past the live mark's
				// end in the line that holds it.
				from := m.off
				if live >= 0 && r.Intn(2) == 0 {
					from = marks[live].m.off
				}
				to := min((from+mem.CachelineSize-1)&^(mem.CachelineSize-1), m.lim())
				if from >= to {
					continue
				}
				off := from + uint64(r.Intn(int(to-from)))
				write(off, 1+r.Intn(int(to-off)))
				did = fmt.Sprintf("tail write at %#x", off)
			case k < 13:
				marks = append(marks, pair{h.Mark(), m.mark()})
				live = len(marks) - 1
				did = "mark"
			case k < 17:
				// The live mark, if any, half the time; otherwise any
				// mark or the empty one.
				i := len(marks)
				if live >= 0 && r.Intn(2) == 0 {
					i = live
				} else if len(marks) > 0 {
					i = r.Intn(len(marks) + 1)
				}
				if i == len(marks) {
					h.Rewind(nil)
					m.rewind(nil)
					live = -1
					did = "rewind to the empty mark"
					break
				}
				h.Rewind(marks[i].h)
				m.rewind(marks[i].m)
				did = fmt.Sprintf("rewind to mark %d (live %v)", i, i == live)
				if i != live {
					live = -1
				}
			default:
				// CloneWith takes marks no longer than the heap's
				// allocations.
				i := r.Intn(len(marks) + 1)
				var hm *Mark
				var mm *modelMark
				if i < len(marks) {
					hm, mm = marks[i].h, marks[i].m
					if mm.off > m.off {
						continue
					}
				}
				c := h.CloneWith(hm)
				sameHeap(t, fmt.Sprintf("seed %d step %d clone of mark %d", seed, step, i), c, m.off, m.clone(mm))
				did = fmt.Sprintf("clone of mark %d", i)
			}
			at := fmt.Sprintf("seed %d step %d (%s)", seed, step, did)
			sameHeap(t, at, h, m.off, m.buf[:m.lim()])
			for i, p := range marks {
				off := uint64(r.Intn(int(size)))
				dst := make([]byte, min(uint64(1+r.Intn(150)), size-off))
				h.ReadMarked(p.h, h.Base()+mem.Addr(off), dst)
				want := make([]byte, len(dst))
				if off < p.m.off {
					copy(want, p.m.image[off:])
				}
				if !bytes.Equal(dst, want) {
					t.Fatalf("%s: mark %d read at %#x: %x, model %x", at, i, off, dst, want)
				}
			}
		}
	}
}

// TestHeapMarkCostsWhatIsWritten pins that a live mark costs host memory
// for the lines written since, not for the heap's allocated prefix.
func TestHeapMarkCostsWhatIsWritten(t *testing.T) {
	const prefix = 32 << 20
	h := NewPMHeap(2 * prefix)
	base := h.Alloc(prefix, mem.CachelineSize)
	h.PutUint64(base+prefix-8, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mark := h.Mark()
	for i := 0; i < 100; i++ {
		h.PutUint64(base+mem.Addr(i)*(prefix/100)&^(mem.CachelineSize-1), uint64(i)+2)
	}
	h.Rewind(mark)
	runtime.ReadMemStats(&after)
	if moved := after.TotalAlloc - before.TotalAlloc; moved >= 1<<20 {
		t.Fatalf("Mark, 100 line writes and Rewind on a %d MB prefix allocated %d bytes", prefix>>20, moved)
	}
	if h.Uint64(base) != 0 || h.Uint64(base+prefix-8) != 1 {
		t.Fatal("Rewind did not restore the marked bytes")
	}
}
