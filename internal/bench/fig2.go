package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
)

// Fig2Point is one x-position of Fig. 2: read amplification for each
// cachelines-per-XPLine setting at one working-set size.
type Fig2Point struct {
	WSSBytes int
	// RA[k] is the read amplification when reading k+1 cachelines per
	// XPLine (the paper's "read 1..4 cachelines" curves).
	RA [mem.LinesPerXPLine]float64
}

// Fig2Options scales the experiment.
type Fig2Options struct {
	Gen Gen
	// WSS are the working-set sizes to sweep; nil uses the paper's
	// 2-36 KB range.
	WSS []int
	// Passes is the number of measured full passes over the working set
	// per CpX configuration.
	Passes int
}

func (o *Fig2Options) defaults() {
	if o.Gen == 0 {
		o.Gen = G1
	}
	if o.WSS == nil {
		o.WSS = LinSweep(2*KB, 36*KB, 2*KB)
	}
	if o.Passes <= 0 {
		o.Passes = 8
	}
}

// Fig2 reproduces §3.1's read-buffer experiment: strided reads aligned
// to XPLines, reading CpX cachelines from each XPLine per round, with
// every cacheline flushed (clflushopt) immediately after it is read so
// all traffic reaches the DIMM. It reports read amplification as the
// working set grows.
func Fig2(o Fig2Options) []Fig2Point { return fig2(new(machine.Meter), o) }

func fig2(m *machine.Meter, o Fig2Options) []Fig2Point {
	o.defaults()
	points := make([]Fig2Point, 0, len(o.WSS))
	for _, wss := range o.WSS {
		p := Fig2Point{WSSBytes: wss}
		for cpx := 1; cpx <= mem.LinesPerXPLine; cpx++ {
			p.RA[cpx-1] = fig2Cell(m, o, wss, cpx)
		}
		points = append(points, p)
	}
	return points
}

// fig2Cell measures RA for one (wss, cpx) cell on a fresh system.
func fig2Cell(m *machine.Meter, o Fig2Options, wss, cpx int) float64 {
	sys := m.System(o.Gen.Config(1))
	nXPLines := wss / mem.XPLineSize
	if nXPLines == 0 {
		nXPLines = 1
	}
	base := mem.PMBase

	onePass := func(t *machine.Thread, cpx int) {
		// One "pass" reads cacheline c of every XPLine, for c in
		// [0, cpx), matching Fig. 1's strided pattern.
		for c := 0; c < cpx; c++ {
			for i := 0; i < nXPLines; i++ {
				addr := base + mem.Addr(i*mem.XPLineSize+c*mem.CachelineSize)
				t.Load(addr)
				t.CLFlushOpt(addr)
			}
		}
	}

	sys.Go("fig2", 0, false, func(t *machine.Thread) {
		// Warmup: one cacheline per XPLine creates every XPLine's buffer
		// entry and trains the prefetchers; one settle pass in the
		// cell's own pattern then reaches its steady state before
		// counters reset.
		onePass(t, 1)
		onePass(t, cpx)
		sys.ResetCounters()
		for pass := 0; pass < o.Passes; pass++ {
			onePass(t, cpx)
		}
	})
	m.Run(sys)
	return sys.PMCounters().RA()
}

// fig2Units returns one unit per generation.
func fig2Units(o Options) []Unit {
	units := make([]Unit, 0, 2)
	for _, gen := range []Gen{G1, G2} {
		units = append(units, o.unit("fig2", gen.String(), func(m *machine.Meter) UnitResult {
			pts := fig2(m, Fig2Options{Gen: gen, Passes: o.scale(8, 3)})
			return UnitResult{Data: pts, Text: fmt.Sprintf("[%s] %s", gen, FormatFig2(pts))}
		}))
	}
	return units
}

// FormatFig2 renders the points as the paper's Fig. 2 table.
func FormatFig2(points []Fig2Point) string {
	header := []string{"WSS", "RA(CpX=1)", "RA(CpX=2)", "RA(CpX=3)", "RA(CpX=4)"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			HumanBytes(p.WSSBytes), F(p.RA[0]), F(p.RA[1]), F(p.RA[2]), F(p.RA[3]),
		})
	}
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 2: read amplification vs working-set size (strided reads)")
	b.WriteString(Table(header, rows))
	return b.String()
}
