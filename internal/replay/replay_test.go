package replay

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/telemetry"
)

func TestParseCoriFields(t *testing.T) {
	src := strings.Join([]string{
		"# comment",
		"R 0x1000",
		"W,0x2000,128,1",
		"nt 4096 256 0",
		"F 0x1000 64 1",
		"clflushopt 0x3000",
		"sfence 1",
		"MFENCE",
		"",
		"// trailing comment",
	}, "\n")
	ops, st, err := ReadAll(strings.NewReader(src), Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Kind: mem.OpLoad, Addr: 0x1000, Size: 64, Thread: -1, SrcLine: 2},
		{Kind: mem.OpStore, Addr: 0x2000, Size: 128, Thread: 1, SrcLine: 3},
		{Kind: mem.OpNTStore, Addr: 4096, Size: 256, Thread: 0, SrcLine: 4},
		{Kind: mem.OpCLWB, Addr: 0x1000, Size: 64, Thread: 1, SrcLine: 5},
		{Kind: mem.OpCLFlushOpt, Addr: 0x3000, Size: 64, Thread: -1, SrcLine: 6},
		{Kind: mem.OpSFence, Thread: 1, SrcLine: 7},
		{Kind: mem.OpMFence, Thread: -1, SrcLine: 8},
	}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("ops mismatch:\n got %+v\nwant %+v", ops, want)
	}
	if st.Format != FormatCori || st.Skipped != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestParseRamulatorBothForms(t *testing.T) {
	src := "0x100 R\n0x200 W\nLD 0x300\nST 768\n"
	ops, st, err := ReadAll(strings.NewReader(src), Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Format != FormatRamulator {
		t.Fatalf("detected %v, want ramulator", st.Format)
	}
	kinds := []mem.OpKind{mem.OpLoad, mem.OpStore, mem.OpLoad, mem.OpStore}
	addrs := []uint64{0x100, 0x200, 0x300, 768}
	for i, op := range ops {
		if op.Kind != kinds[i] || op.Addr != addrs[i] || op.Size != 64 || op.Thread != -1 {
			t.Fatalf("op %d = %+v", i, op)
		}
	}
}

func TestMixedLineEndings(t *testing.T) {
	src := "R 0x40\r\nW 0x80\nR 0xc0\r\n"
	ops, _, err := ReadAll(strings.NewReader(src), Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("got %d ops, want 3", len(ops))
	}
}

func TestStrictRejectsMalformed(t *testing.T) {
	cases := []string{
		"Q 0x1000",               // unknown op
		"R",                      // missing addr
		"R 0xzz",                 // bad hex
		"R 0x1000 0",             // zero size
		"R 0x1000 -5",            // negative size
		"R 0x1000 1048577",       // size > MaxOpSize
		"R 0x1000 64 -1",         // negative thread
		"R 0x1000 64 1 9",        // too many fields
		"R 0xffffffffffffffffff", // address overflows uint64
		"sfence x",               // bad fence thread
		"\x00\x01\x02",           // binary garbage
		"18446744073709551616 R", // ramulator addr overflow (forced)
	}
	for _, c := range cases {
		f := FormatCori
		if strings.HasSuffix(c, " R") {
			f = FormatRamulator
		}
		_, _, err := ReadAll(strings.NewReader(c+"\n"), Options{Strict: true, Format: f})
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%q: want ParseError, got %v", c, err)
		}
	}
}

func TestLenientSkipsAndCounts(t *testing.T) {
	src := "R 0x40\ngarbage line here and more\nW 0x80\nR 0xzz\n"
	ops, st, err := ReadAll(strings.NewReader(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || st.Skipped != 2 || st.Ops != 2 {
		t.Fatalf("ops=%d stats=%+v", len(ops), st)
	}
}

func TestTruncatedLastLine(t *testing.T) {
	// No trailing newline: the final record still parses.
	ops, _, err := ReadAll(strings.NewReader("R 0x40\nW 0x80"), Options{Strict: true})
	if err != nil || len(ops) != 2 {
		t.Fatalf("ops=%d err=%v", len(ops), err)
	}
}

func TestMaxOpsStopsEarly(t *testing.T) {
	src := strings.Repeat("R 0x40\n", 100)
	ops, st, err := ReadAll(strings.NewReader(src), Options{MaxOps: 7})
	if err != nil || len(ops) != 7 || st.Ops != 7 {
		t.Fatalf("ops=%d stats=%+v err=%v", len(ops), st, err)
	}
}

func TestOverlongLineErrors(t *testing.T) {
	src := "R " + strings.Repeat("9", maxLineBytes+10)
	_, _, err := ReadAll(strings.NewReader(src), Options{})
	if err == nil {
		t.Fatal("want scanner error for over-long line")
	}
}

func TestAssignPolicies(t *testing.T) {
	withTID := Op{Kind: mem.OpLoad, Addr: 0x1000, Thread: 5}
	noTID := Op{Kind: mem.OpLoad, Addr: 0x1000, Thread: -1}
	fence := Op{Kind: mem.OpSFence, Thread: -1}
	if got := threadOf(withTID, 9, 4, AssignTrace); got != 1 {
		t.Errorf("trace policy: got %d, want 5 mod 4 = 1", got)
	}
	if got := threadOf(fence, 9, 4, AssignTrace); got != 0 {
		t.Errorf("fence without tid: got %d, want 0", got)
	}
	if got := threadOf(noTID, 9, 4, AssignRoundRobin); got != 1 {
		t.Errorf("round-robin: got %d, want 9 mod 4 = 1", got)
	}
	// Addr policy: stable, in range, and line-granular.
	a := threadOf(noTID, 0, 4, AssignAddr)
	b := threadOf(Op{Kind: mem.OpLoad, Addr: 0x1020, Thread: -1}, 7, 4, AssignAddr)
	if a != b {
		t.Errorf("same cacheline must map to same thread: %d vs %d", a, b)
	}
	if a < 0 || a >= 4 {
		t.Errorf("thread %d out of range", a)
	}
}

func TestExpandFoldsIntoWindow(t *testing.T) {
	var dst []execOp
	// 128 B footprint starting mid-line: covers 3 cachelines.
	dst = expand(dst, Op{Kind: mem.OpLoad, Addr: 0x1020, Size: 128}, 1<<20)
	if len(dst) != 3 {
		t.Fatalf("got %d ops, want 3", len(dst))
	}
	for i, e := range dst {
		want := mem.PMBase + mem.Addr((0x1000+i*64)%(1<<20))
		if e.addr != want || e.kind != mem.OpLoad {
			t.Fatalf("op %d = %+v, want addr %v", i, e, want)
		}
	}
	// An address past the window folds back inside it.
	dst = expand(dst[:0], Op{Kind: mem.OpStore, Addr: 1<<20 + 0x40, Size: 64}, 1<<20)
	if dst[0].addr != mem.PMBase+0x40 {
		t.Fatalf("fold: got %v", dst[0].addr)
	}
	// A footprint at the top of the address space clamps, no panic.
	dst = expand(dst[:0], Op{Kind: mem.OpLoad, Addr: ^uint64(0) - 10, Size: 4096}, 1<<20)
	if len(dst) == 0 {
		t.Fatal("clamped footprint produced no ops")
	}
}

// TestExecDeterministicAcrossRuns replays one trace twice, the second
// time through a meter with a recorder: the results are identical, the
// recording holds events, and the meter accumulates the run's end time.
func TestExecDeterministicAcrossRuns(t *testing.T) {
	src := strings.Join([]string{
		"W 0x000 256 0", "F 0x000 256 0", "SFENCE 0",
		"W 0x400 256 1", "F 0x400 256 1", "SFENCE 1",
		"R 0x000 256 0", "R 0x400 256 1",
		"NT 0x800 64 0", "SFENCE 0",
	}, "\n")
	run := func(m *machine.Meter) Result {
		ops, _, err := ReadAll(strings.NewReader(src), Options{Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		return Exec(m, machine.G1Config(2), ops, ExecOptions{Threads: 2, Passes: 3})
	}
	m := &machine.Meter{Rec: telemetry.NewRecorder("replay", telemetry.Config{})}
	a, b := run(new(machine.Meter)), run(m)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two replays differ:\n%+v\n%+v", a, b)
	}
	if a.Ops == 0 || a.EndCycles == 0 || a.PM.IMCWriteBytes == 0 {
		t.Fatalf("implausible result: %+v", a)
	}
	if len(a.Threads) != 2 || a.Threads[0].Ops == 0 || a.Threads[1].Ops == 0 {
		t.Fatalf("thread split wrong: %+v", a.Threads)
	}
	if len(m.Rec.Snapshot().Events) == 0 || m.SimCycles != b.EndCycles {
		t.Fatalf("recording meter: %d events, %d cycles for a run ending at %d",
			len(m.Rec.Snapshot().Events), m.SimCycles, b.EndCycles)
	}
}

func TestExecSingleThreadRamulator(t *testing.T) {
	src := strings.Repeat("0x100 R\n0x200 W\n", 50)
	ops, st, err := ReadAll(strings.NewReader(src), Options{})
	if err != nil || st.Format != FormatRamulator {
		t.Fatalf("stats=%+v err=%v", st, err)
	}
	res := Exec(new(machine.Meter), machine.G2Config(1), ops, ExecOptions{})
	if res.Ops != 100 || res.EndCycles == 0 {
		t.Fatalf("result: %+v", res)
	}
}
