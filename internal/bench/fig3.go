package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

// Fig3Point is one x-position of Fig. 3: write amplification for each
// write fraction at one working-set size.
type Fig3Point struct {
	WSSBytes int
	// WA[k] is the write amplification when writing k+1 of the four
	// cachelines in each XPLine (25%, 50%, 75%, 100% writes).
	WA [mem.LinesPerXPLine]float64
}

// Fig3Options scales the experiment.
type Fig3Options struct {
	Gen Gen
	// WSS are the working-set sizes; nil uses the paper's 2-32 KB range.
	WSS []int
	// Passes is the number of measured passes over the working set.
	Passes int
	// RandomOrder shuffles the across-XPLine visit order. The paper
	// finds WA independent of it; both orders are exposed for tests.
	RandomOrder bool
}

func (o *Fig3Options) defaults() {
	if o.Gen == 0 {
		o.Gen = G1
	}
	if o.WSS == nil {
		o.WSS = LinSweep(2*KB, 32*KB, 2*KB)
	}
	if o.Passes <= 0 {
		o.Passes = 12
	}
}

// Fig3 reproduces §3.2's write-amplification experiment: non-temporal
// stores writing 1..4 cachelines of each XPLine (partial vs full
// writes), bypassing the CPU caches, measuring media-vs-iMC write bytes.
func Fig3(o Fig3Options) []Fig3Point { return fig3(new(machine.Meter), o) }

func fig3(m *machine.Meter, o Fig3Options) []Fig3Point {
	o.defaults()
	points := make([]Fig3Point, 0, len(o.WSS))
	for _, wss := range o.WSS {
		p := Fig3Point{WSSBytes: wss}
		for lines := 1; lines <= mem.LinesPerXPLine; lines++ {
			p.WA[lines-1] = fig3Cell(m, o, wss, lines)
		}
		points = append(points, p)
	}
	return points
}

// fig3Cell measures WA for one (wss, linesPerXPL) cell on a fresh system.
func fig3Cell(m *machine.Meter, o Fig3Options, wss, linesPerXPL int) float64 {
	sys := m.System(o.Gen.Config(1))
	nXPLines := wss / mem.XPLineSize
	if nXPLines == 0 {
		nXPLines = 1
	}
	base := mem.PMBase
	order := make([]int, nXPLines)
	for i := range order {
		order[i] = i
	}
	if o.RandomOrder {
		order = sim.NewRand(42).Perm(nXPLines)
	}

	onePass := func(t *machine.Thread, linesPerXPL int) {
		for _, i := range order {
			xpl := base + mem.Addr(i*mem.XPLineSize)
			// Sequential cacheline updates within the XPLine (§3.2).
			for c := 0; c < linesPerXPL; c++ {
				t.NTStore(xpl + mem.Addr(c*mem.CachelineSize))
			}
		}
		t.SFence()
	}

	sys.Go("fig3", 0, false, func(t *machine.Thread) {
		// Warmup: one cacheline per XPLine creates every XPLine's
		// write-buffer entry; one settle pass in the cell's own write
		// fraction then reaches its steady state before counters reset.
		onePass(t, 1)
		onePass(t, linesPerXPL)
		sys.ResetCounters()
		for pass := 0; pass < o.Passes; pass++ {
			onePass(t, linesPerXPL)
		}
		// Let G1's periodic write-back drain before reading counters.
		t.Compute(4 * 5000)
		t.NTStore(base) // touch the DIMM so lazy write-back runs
	})
	m.Run(sys)
	c := sys.PMCounters()
	// Exclude the single drain-touch write from the denominator.
	c.IMCWriteBytes -= mem.CachelineSize
	return c.WA()
}

// fig3Units returns one unit per generation.
func fig3Units(o Options) []Unit {
	units := make([]Unit, 0, 2)
	for _, gen := range []Gen{G1, G2} {
		units = append(units, o.unit("fig3", gen.String(), func(m *machine.Meter) UnitResult {
			pts := fig3(m, Fig3Options{Gen: gen, Passes: o.scale(12, 4)})
			return UnitResult{Data: pts, Text: fmt.Sprintf("[%s] %s", gen, FormatFig3(pts))}
		}))
	}
	return units
}

// FormatFig3 renders the points as the paper's Fig. 3.
func FormatFig3(points []Fig3Point) string {
	header := []string{"WSS", "WA(25%)", "WA(50%)", "WA(75%)", "WA(100%)"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			HumanBytes(p.WSSBytes), F(p.WA[0]), F(p.WA[1]), F(p.WA[2]), F(p.WA[3]),
		})
	}
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 3: write amplification vs working-set size (nt-store writes)")
	b.WriteString(Table(header, rows))
	return b.String()
}
