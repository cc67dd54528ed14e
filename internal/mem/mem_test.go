package mem

import (
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	if CachelineSize != 64 || XPLineSize != 256 || LinesPerXPLine != 4 {
		t.Fatal("geometry constants drifted from the paper's platform")
	}
}

func TestLineAlignment(t *testing.T) {
	cases := []struct{ in, line, xpl Addr }{
		{0, 0, 0},
		{63, 0, 0},
		{64, 64, 0},
		{255, 192, 0},
		{256, 256, 256},
		{1000, 960, 768},
	}
	for _, c := range cases {
		if got := c.in.Line(); got != c.line {
			t.Errorf("Line(%d) = %d, want %d", c.in, got, c.line)
		}
		if got := c.in.XPLine(); got != c.xpl {
			t.Errorf("XPLine(%d) = %d, want %d", c.in, got, c.xpl)
		}
	}
}

func TestLineInXPLine(t *testing.T) {
	for i := 0; i < 4; i++ {
		a := Addr(1024 + i*64 + 13)
		if got := a.LineInXPLine(); got != i {
			t.Errorf("LineInXPLine(%v) = %d, want %d", a, got, i)
		}
	}
}

func TestIsPM(t *testing.T) {
	if Addr(0).IsPM() || Addr(PMBase-1).IsPM() {
		t.Fatal("DRAM addresses classified as PM")
	}
	if !PMBase.IsPM() || !(PMBase + 12345).IsPM() {
		t.Fatal("PM addresses classified as DRAM")
	}
}

// Property: line/XPLine rounding is idempotent, order-preserving, and
// the line always falls inside its XPLine.
func TestQuickAlignmentInvariants(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw)
		l, x := a.Line(), a.XPLine()
		return l.Line() == l && x.XPLine() == x &&
			l <= a && x <= l &&
			a-l < CachelineSize && a-x < XPLineSize &&
			l.LineInXPLine() == int((l-x)/CachelineSize)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpKindStrings(t *testing.T) {
	if OpLoad.String() != "load" || OpNTStore.String() != "nt-store" ||
		OpCLWB.String() != "clwb" || OpMFence.String() != "mfence" {
		t.Fatal("op kind mnemonics drifted")
	}
	if OpKind(200).String() == "" {
		t.Fatal("unknown op kind should still render")
	}
}

func TestAddrString(t *testing.T) {
	if Addr(64).String() != "dram:0x40" {
		t.Fatalf("dram addr render: %q", Addr(64).String())
	}
	if (PMBase + 0x100).String() != "pm:0x100" {
		t.Fatalf("pm addr render: %q", (PMBase + 0x100).String())
	}
}
