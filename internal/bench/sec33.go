package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
)

// Sec33Result reproduces §3.3's two findings (the experiment behind
// Fig. 5, which the paper reports in prose): the read and write buffers
// are separate spaces, and XPLines transition between them so that
// interleaved reads and writes to the same XPLine avoid media RMWs.
type Sec33Result struct {
	// Separation experiment: a 16 KB read region and an 8 KB write
	// region accessed interleaved. If the buffers shared one 16 KB
	// space the 24 KB aggregate would thrash; separate buffers show the
	// same traffic as the two baselines run alone.
	InterleavedRA      float64
	InterleavedMediaWr uint64
	BaselineRA         float64
	BaselineMediaWr    uint64

	// Transition experiment: one nt-store to an XPLine's first line,
	// then reads of its other three lines, 8 KB working set. Both media
	// byte streams must stay far below the iMC's.
	TransitionMediaRead  uint64
	TransitionIMCRead    uint64
	TransitionMediaWrite uint64
	TransitionIMCWrite   uint64
}

// Sec33 runs both §3.3 experiments on G1.
func Sec33() Sec33Result { return sec33(new(machine.Meter)) }

func sec33(m *machine.Meter) Sec33Result {
	var r Sec33Result

	// --- Separation: interleaved accesses.
	{
		sys := m.System(G1.Config(1))
		readBase := mem.PMBase
		writeBase := mem.PMBase + (1 << 20)
		sys.Go("s", 0, false, func(t *machine.Thread) {
			pass := func() {
				for i := 0; i < 64; i++ { // 16 KB read region
					xpl := readBase + mem.Addr(i*mem.XPLineSize)
					for c := 0; c < mem.LinesPerXPLine; c++ {
						a := xpl + mem.Addr(c*mem.CachelineSize)
						t.Load(a)
						t.CLFlushOpt(a)
					}
					if i < 32 { // 8 KB write region
						t.NTStore(writeBase + mem.Addr(i*mem.XPLineSize))
					}
				}
				t.SFence()
			}
			pass()
			sys.ResetCounters()
			for p := 0; p < 6; p++ {
				pass()
			}
		})
		m.Run(sys)
		c := sys.PMCounters()
		r.InterleavedRA = c.RA()
		r.InterleavedMediaWr = c.MediaWriteBytes
	}

	// --- Separation baselines: the regions accessed alone.
	{
		sys := m.System(G1.Config(1))
		readBase := mem.PMBase
		writeBase := mem.PMBase + (1 << 20)
		sys.Go("s", 0, false, func(t *machine.Thread) {
			passRead := func() {
				for i := 0; i < 64; i++ {
					xpl := readBase + mem.Addr(i*mem.XPLineSize)
					for c := 0; c < mem.LinesPerXPLine; c++ {
						a := xpl + mem.Addr(c*mem.CachelineSize)
						t.Load(a)
						t.CLFlushOpt(a)
					}
				}
			}
			passWrite := func() {
				for i := 0; i < 32; i++ {
					t.NTStore(writeBase + mem.Addr(i*mem.XPLineSize))
				}
				t.SFence()
			}
			passRead()
			passWrite()
			sys.ResetCounters()
			for p := 0; p < 6; p++ {
				passRead()
			}
			for p := 0; p < 6; p++ {
				passWrite()
			}
		})
		m.Run(sys)
		c := sys.PMCounters()
		r.BaselineRA = c.RA()
		r.BaselineMediaWr = c.MediaWriteBytes
	}

	// --- Transition: write one line, read the other three, 8 KB WSS.
	{
		sys := m.System(G1.Config(1))
		base := mem.PMBase
		sys.Go("s", 0, false, func(t *machine.Thread) {
			pass := func() {
				for i := 0; i < 32; i++ { // 8 KB
					xpl := base + mem.Addr(i*mem.XPLineSize)
					t.NTStore(xpl)
					for c := 1; c < mem.LinesPerXPLine; c++ {
						a := xpl + mem.Addr(c*mem.CachelineSize)
						t.Load(a)
						t.CLFlushOpt(a)
					}
				}
				t.SFence()
			}
			pass()
			sys.ResetCounters()
			for p := 0; p < 6; p++ {
				pass()
			}
		})
		m.Run(sys)
		c := sys.PMCounters()
		r.TransitionMediaRead = c.MediaReadBytes
		r.TransitionIMCRead = c.IMCReadBytes
		r.TransitionMediaWrite = c.MediaWriteBytes
		r.TransitionIMCWrite = c.IMCWriteBytes
	}
	return r
}

// sec33Units returns the experiment's single unit.
func sec33Units(o Options) []Unit {
	return []Unit{o.unit("sec33", "", func(m *machine.Meter) UnitResult {
		r := sec33(m)
		return UnitResult{Data: r, Text: FormatSec33(r)}
	})}
}

// latencyUnits returns one idle-latency table unit per generation.
func latencyUnits(o Options) []Unit {
	units := make([]Unit, 0, 2)
	for _, gen := range []Gen{G1, G2} {
		units = append(units, o.unit("latency", gen.String(), func(m *machine.Meter) UnitResult {
			rows := latencyTable(m, gen)
			return UnitResult{Data: rows, Text: FormatLatencyTable(gen, rows)}
		}))
	}
	return units
}

// FormatSec33 renders the two findings.
func FormatSec33(r Sec33Result) string {
	var b strings.Builder
	fmt.Fprintln(&b, "§3.3: the read and write buffers are separate, with XPLine transitions")
	b.WriteString(Table(
		[]string{"experiment", "RA", "media write bytes"},
		[][]string{
			{"16KB reads + 8KB writes interleaved", F(r.InterleavedRA), fmt.Sprintf("%d", r.InterleavedMediaWr)},
			{"the two regions accessed alone", F(r.BaselineRA), fmt.Sprintf("%d", r.BaselineMediaWr)},
		}))
	fmt.Fprintln(&b, "-> identical traffic: no competition for a shared buffer space")
	b.WriteString(Table(
		[]string{"transition experiment (8KB)", "iMC bytes", "media bytes"},
		[][]string{
			{"reads", fmt.Sprintf("%d", r.TransitionIMCRead), fmt.Sprintf("%d", r.TransitionMediaRead)},
			{"writes", fmt.Sprintf("%d", r.TransitionIMCWrite), fmt.Sprintf("%d", r.TransitionMediaWrite)},
		}))
	fmt.Fprintln(&b, "-> media traffic far below iMC traffic: reads serve from the write")
	fmt.Fprintln(&b, "   buffer and writes update read-buffered XPLines, skipping the RMW")
	return b.String()
}

// LatencyRow is one row of the §2.2 idle-latency table.
type LatencyRow struct {
	Op     string
	Cycles float64
}

// LatencyTable measures the §2.2 background latencies on an idle
// system: random PM reads are far slower than persists (the paper's
// "surprising" asymmetry: writes commit at the ADR domain while reads
// must touch the 3D-XPoint media).
func LatencyTable(gen Gen) []LatencyRow { return latencyTable(new(machine.Meter), gen) }

func latencyTable(m *machine.Meter, gen Gen) []LatencyRow {
	measure := func(fn func(t *machine.Thread, i int)) float64 {
		sys := m.System(gen.Config(1))
		const n = 2000
		var total float64
		sys.Go("lat", 0, false, func(t *machine.Thread) {
			start := t.Now()
			for i := 0; i < n; i++ {
				fn(t, i)
			}
			total = float64(t.Now()-start) / n
		})
		m.Run(sys)
		return total
	}
	// measureAfter times only op, letting setup run untimed first.
	measureAfter := func(setup, op func(t *machine.Thread, i int)) float64 {
		sys := m.System(gen.Config(1))
		const n = 2000
		var total float64
		sys.Go("lat", 0, false, func(t *machine.Thread) {
			var sum float64
			for i := 0; i < n; i++ {
				setup(t, i)
				before := t.Now()
				op(t, i)
				sum += float64(t.Now() - before)
			}
			total = sum / n
		})
		m.Run(sys)
		return total
	}

	// Strided, cold addresses so reads always miss.
	pmAddr := func(i int) mem.Addr { return mem.PMBase + mem.Addr(i)*4096 }
	dramAddr := func(i int) mem.Addr { return mem.Addr(1<<20) + mem.Addr(i)*4096 }

	return []LatencyRow{
		{"PM random read (cold)", measure(func(t *machine.Thread, i int) { t.LoadDep(pmAddr(i)) })},
		{"DRAM random read (cold)", measure(func(t *machine.Thread, i int) { t.LoadDep(dramAddr(i)) })},
		{"PM persist (store+clwb+sfence)", measure(func(t *machine.Thread, i int) {
			t.Store(pmAddr(i))
			t.CLWB(pmAddr(i))
			t.SFence()
		})},
		{"PM nt-store+sfence", measure(func(t *machine.Thread, i int) {
			t.NTStore(pmAddr(i))
			t.SFence()
		})},
		{"PM read, on-DIMM buffer hit", measureAfter(
			func(t *machine.Thread, i int) { t.LoadDep(pmAddr(i)) }, // install the XPLine
			func(t *machine.Thread, i int) { t.LoadDep(pmAddr(i) + 64) },
		)},
	}
}

// FormatLatencyTable renders the idle-latency rows.
func FormatLatencyTable(gen Gen, rows []LatencyRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{r.Op, F1(r.Cycles)})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Idle latencies (§2.2 background, %s)\n", gen)
	b.WriteString(Table([]string{"operation", "cycles"}, out))
	fmt.Fprintln(&b, "-> reads must touch the media; persists complete at WPQ acceptance")
	return b.String()
}
