package replay

import (
	"errors"
	"io"
	"strings"
	"testing"

	"optanesim/internal/mem"
)

// FuzzReader drives the streaming parser with arbitrary bytes in every
// (format, strict) combination. The contract under fuzzing: never
// panic, never return a record that violates the Op invariants, and in
// lenient mode never fail at all on inputs small enough to scan.
func FuzzReader(f *testing.F) {
	seeds := []string{
		"R 0x1000\nW 0x2000 128 1\nSFENCE\n",
		"0x100 R\n0x200 W\nLD 0x300\nST 0x400\n",
		"# comment\r\n\r\nNT 4096 256 0\r\nMFENCE 3\r\n",
		"R 0xffffffffffffffff\nW 18446744073709551615\n",
		"R 0xffffffffffffffffff\n",       // address overflow
		"R 0x1000 1048577\n",             // size over MaxOpSize
		"R 0x1000 64 1 extra fields\n",   // too many fields
		"W 0x40 9999999999999999999 0\n", // size overflow
		"LD\nST\nR\nW\n",                 // truncated records
		"R,0x40,,\n,,,\n",                // empty comma fields
		"sfence -1\nmfence x\n",          // bad fence threads
		"\x00\xff\xfe binary\n",
		"R 0x40", // no trailing newline
		"//only a comment",
		strings.Repeat("R 0x40\n", 100),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []Format{FormatAuto, FormatCori, FormatRamulator} {
			for _, strict := range []bool{false, true} {
				ops, st, err := ReadAll(strings.NewReader(string(data)),
					Options{Format: format, Strict: strict, MaxOps: 4096})
				if err != nil {
					var pe *ParseError
					if strict && errors.As(err, &pe) {
						continue // malformed line correctly rejected
					}
					if errors.Is(err, io.EOF) {
						t.Fatalf("io.EOF must not escape ReadAll")
					}
					// Remaining errors must come from the scanner (e.g.
					// over-long lines), in either mode.
					if !strings.Contains(err.Error(), "reading trace") {
						t.Fatalf("unexpected error class: %v", err)
					}
					continue
				}
				if st.Ops != len(ops) {
					t.Fatalf("stats.Ops=%d but %d records", st.Ops, len(ops))
				}
				for _, op := range ops {
					if op.Kind > mem.OpMFence {
						t.Fatalf("invalid kind %v", op.Kind)
					}
					isFence := op.Kind == mem.OpSFence || op.Kind == mem.OpMFence
					if !isFence && (op.Size < 1 || op.Size > MaxOpSize) {
						t.Fatalf("size %d out of range", op.Size)
					}
					if op.Thread < -1 {
						t.Fatalf("thread %d out of range", op.Thread)
					}
					if op.SrcLine < 1 {
						t.Fatalf("source line %d", op.SrcLine)
					}
				}
			}
		}
	})
}

// FuzzExpand feeds arbitrary (addr, size) footprints through the
// cacheline expansion: it must never panic and never emit more lines
// than the footprint bound allows.
func FuzzExpand(f *testing.F) {
	f.Add(uint64(0), 64)
	f.Add(uint64(0x1020), 128)
	f.Add(^uint64(0), MaxOpSize)
	f.Add(^uint64(0)-63, 1)
	f.Add(uint64(1<<40), 4096)
	f.Fuzz(func(t *testing.T, addr uint64, size int) {
		if size < 1 {
			size = 1
		}
		size = size%MaxOpSize + 1
		got := expand(nil, Op{Kind: mem.OpStore, Addr: addr, Size: size}, 64<<20)
		maxLines := size/64 + 2
		if len(got) < 1 || len(got) > maxLines {
			t.Fatalf("addr=%#x size=%d: %d lines (max %d)", addr, size, len(got), maxLines)
		}
	})
}
