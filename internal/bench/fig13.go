package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/sim"
	"optanesim/internal/trace"
	"optanesim/internal/xpline"
)

// Fig13Point is one x-position of Fig. 13: read ratios of the baseline
// (prefetching) versus the redirected access path.
type Fig13Point struct {
	WSSBytes int
	// IMCRatio / PMRatio are the baseline's read ratios with all
	// prefetchers on.
	IMCRatio, PMRatio float64
	// OptimizedPM is the PM read ratio of the redirected path.
	OptimizedPM float64
}

// Fig13Options scales the experiment.
type Fig13Options struct {
	Gen Gen
	// WSS are the working-set sizes; nil uses 4 KB - 1 GB.
	WSS []int
	// MaxVisits caps the number of block visits per cell.
	MaxVisits int
}

func (o *Fig13Options) defaults() {
	if o.Gen == 0 {
		o.Gen = G1
	}
	if o.WSS == nil {
		o.WSS = LogSweep(4*KB, 1*GB)
	}
	if o.MaxVisits <= 0 {
		o.MaxVisits = 40000
	}
}

// Fig13 reproduces §4.3's Fig. 13: the §3.4 random-block benchmark with
// all CPU prefetchers enabled, versus the AVX redirection optimization,
// measuring the amount of data actually loaded relative to demand.
func Fig13(o Fig13Options) []Fig13Point { return fig13(new(machine.Meter), o) }

func fig13(m *machine.Meter, o Fig13Options) []Fig13Point {
	o.defaults()
	points := make([]Fig13Point, 0, len(o.WSS))
	for _, wss := range o.WSS {
		var c [2]trace.Counters // direct, redirected
		for i := range c {
			c[i] = fig13Cell(m, o, wss, i == 1)
		}
		points = append(points, Fig13Point{
			WSSBytes: wss,
			IMCRatio: c[0].IMCReadRatio(), PMRatio: c[0].PMReadRatio(),
			OptimizedPM: c[1].PMReadRatio(),
		})
	}
	return points
}

// fig13Cell measures one working-set size on a fresh system, with
// direct or redirected (optimized) accesses after a warmup of direct
// ones that only fills caches and on-DIMM buffers.
func fig13Cell(m *machine.Meter, o Fig13Options, wss int, optimized bool) trace.Counters {
	sys := m.System(o.Gen.Config(1))
	nBlocks := wss / mem.XPLineSize
	if nBlocks == 0 {
		nBlocks = 1
	}
	base := mem.PMBase
	rng := sim.NewRand(21)

	visits := 3*nBlocks + 2000
	if visits > o.MaxVisits {
		visits = o.MaxVisits
	}
	warmup := visits / 4

	sys.Go("fig13", 0, false, func(t *machine.Thread) {
		for i := 0; i < warmup; i++ {
			xpline.Direct(t, base+mem.Addr(rng.Intn(nBlocks)*mem.XPLineSize))
		}
		sys.ResetCounters()
		for v := 0; v < visits; v++ {
			block := base + mem.Addr(rng.Intn(nBlocks)*mem.XPLineSize)
			if optimized {
				xpline.Redirected(t, block, mem.DRAMBase)
			} else {
				xpline.Direct(t, block)
			}
		}
	})
	m.Run(sys)
	return sys.PMCounters()
}

// fig13Units returns one unit per generation.
func fig13Units(o Options) []Unit {
	units := make([]Unit, 0, 2)
	for _, gen := range []Gen{G1, G2} {
		units = append(units, o.unit("fig13", gen.String(), func(m *machine.Meter) UnitResult {
			pts := fig13(m, Fig13Options{Gen: gen, MaxVisits: o.scale(40000, 10000)})
			return UnitResult{Data: pts, Text: FormatFig13(gen, pts)}
		}))
	}
	return units
}

// FormatFig13 renders the panel.
func FormatFig13(gen Gen, points []Fig13Point) string {
	header := []string{"WSS", "iMC w/ prefetch", "PM w/ prefetch", "optimized PM"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			HumanBytes(p.WSSBytes), F(p.IMCRatio), F(p.PMRatio), F(p.OptimizedPM),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: reducing misprefetching via access redirection (%s)\n", gen)
	b.WriteString(Table(header, rows))
	return b.String()
}
