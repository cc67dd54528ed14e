package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

// Fig4Point is one x-position of Fig. 4: write-buffer hit ratio at one
// working-set size, per generation.
type Fig4Point struct {
	WSSBytes int
	HitRatio map[Gen]float64
}

// Fig4Options scales the experiment.
type Fig4Options struct {
	// WSS are the working-set sizes; nil uses the paper's 2-32 KB range.
	WSS []int
	// Writes is the number of measured random partial writes per cell.
	Writes int
}

func (o *Fig4Options) defaults() {
	if o.WSS == nil {
		o.WSS = LinSweep(2*KB, 32*KB, 2*KB)
	}
	if o.Writes <= 0 {
		o.Writes = 20000
	}
}

// Fig4 reproduces §3.2's eviction-policy experiment: uniformly random
// partial writes (one cacheline per XPLine touch) measuring the fraction
// absorbed by the write buffer, on both generations. G1's batch eviction
// at its 12 KB high watermark produces the sharp knee; G2's single
// random-victim eviction declines gracefully past a larger knee.
func Fig4(o Fig4Options) []Fig4Point { return fig4(new(machine.Meter), o) }

func fig4(m *machine.Meter, o Fig4Options) []Fig4Point {
	o.defaults()
	points := make([]Fig4Point, 0, len(o.WSS))
	for _, wss := range o.WSS {
		p := Fig4Point{WSSBytes: wss, HitRatio: make(map[Gen]float64, 2)}
		for _, gen := range []Gen{G1, G2} {
			p.HitRatio[gen] = fig4Run(m, gen.Config(1), wss, o.Writes)
		}
		points = append(points, p)
	}
	return points
}

// fig4Run measures the write-buffer hit ratio of one cell on a fresh
// system built from cfg.
func fig4Run(m *machine.Meter, cfg machine.Config, wss, writes int) float64 {
	sys := m.System(cfg)
	nXPLines := wss / mem.XPLineSize
	if nXPLines == 0 {
		nXPLines = 1
	}
	base := mem.PMBase
	rng := sim.NewRand(7)

	sys.Go("fig4", 0, false, func(t *machine.Thread) {
		warmup := nXPLines * 2
		for i := 0; i < warmup; i++ {
			xpl := base + mem.Addr(rng.Intn(nXPLines)*mem.XPLineSize)
			t.NTStore(xpl)
			if i%64 == 63 {
				t.SFence()
			}
		}
		t.SFence()
		sys.ResetCounters()
		for i := 0; i < writes; i++ {
			xpl := base + mem.Addr(rng.Intn(nXPLines)*mem.XPLineSize)
			t.NTStore(xpl)
			if i%64 == 63 {
				t.SFence()
			}
		}
		t.SFence()
	})
	m.Run(sys)
	return sys.PMCounters().WriteBufferHitRatio()
}

// fig4Units returns the experiment's single unit (both generations run
// inside one sweep).
func fig4Units(o Options) []Unit {
	return []Unit{o.unit("fig4", "", func(m *machine.Meter) UnitResult {
		pts := fig4(m, Fig4Options{Writes: o.scale(20000, 5000)})
		return UnitResult{Data: pts, Text: FormatFig4(pts)}
	})}
}

// FormatFig4 renders the points as the paper's Fig. 4.
func FormatFig4(points []Fig4Point) string {
	header := []string{"WSS", "hit(G1)", "hit(G2)"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			HumanBytes(p.WSSBytes), F(p.HitRatio[G1]), F(p.HitRatio[G2]),
		})
	}
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 4: write-buffer hit ratio vs working-set size (random partial writes)")
	b.WriteString(Table(header, rows))
	return b.String()
}
