package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/prefetch"
	"optanesim/internal/sim"
)

// PrefetchSetting names one of Fig. 6's four prefetcher configurations.
type PrefetchSetting int

// The four panels of Fig. 6 (per generation).
const (
	PFNone PrefetchSetting = iota
	PFHardware
	PFAdjacent
	PFDCUStreamer
)

func (p PrefetchSetting) String() string {
	switch p {
	case PFHardware:
		return "hardware"
	case PFAdjacent:
		return "adjacent"
	case PFDCUStreamer:
		return "dcu"
	default:
		return "none"
	}
}

// Config returns the prefetch configuration for the setting.
func (p PrefetchSetting) Config() prefetch.Config {
	switch p {
	case PFHardware:
		return prefetch.Config{HW: true}
	case PFAdjacent:
		return prefetch.Config{Adjacent: true}
	case PFDCUStreamer:
		return prefetch.Config{DCU: true}
	default:
		return prefetch.Config{}
	}
}

// Fig6Point is one x-position of one Fig. 6 panel.
type Fig6Point struct {
	WSSBytes int
	// PMRatio is media bytes read / program-demanded bytes.
	PMRatio float64
	// IMCRatio is iMC bytes read / program-demanded bytes.
	IMCRatio float64
}

// Fig6Options scales the experiment.
type Fig6Options struct {
	Gen     Gen
	Setting PrefetchSetting
	// WSS are the working-set sizes; nil uses 4 KB - 1 GB.
	WSS []int
	// MaxVisits caps the number of random block visits per cell.
	MaxVisits int
}

func (o *Fig6Options) defaults() {
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

// Fig6 reproduces §3.4's prefetching experiment: single-threaded random
// accesses at 256 B (XPLine-aligned) block granularity, reading the four
// cachelines of each block sequentially and flushing the block from the
// CPU cache afterwards, with one CPU prefetcher enabled at a time. It
// reports the PM (media/demand) and iMC (iMC/demand) read ratios.
func Fig6(o Fig6Options) []Fig6Point { return fig6(new(machine.Meter), o) }

func fig6(m *machine.Meter, o Fig6Options) []Fig6Point {
	o.defaults()
	points := make([]Fig6Point, 0, len(o.WSS))
	for _, wss := range o.WSS {
		points = append(points, fig6Run(m, o.Gen, o.Setting, wss, o.MaxVisits))
	}
	return points
}

func fig6Run(m *machine.Meter, gen Gen, setting PrefetchSetting, wss, maxVisits int) Fig6Point {
	cfg := gen.Config(1)
	cfg.Prefetch = setting.Config()
	sys := m.System(cfg)
	nBlocks := wss / mem.XPLineSize
	if nBlocks == 0 {
		nBlocks = 1
	}
	base := mem.PMBase
	rng := sim.NewRand(11)

	visits := 3*nBlocks + 2000
	if visits > maxVisits {
		visits = maxVisits
	}
	warmup := visits / 4

	visit := func(t *machine.Thread, block int) {
		addr := base + mem.Addr(block*mem.XPLineSize)
		for c := 0; c < mem.LinesPerXPLine; c++ {
			t.Load(addr + mem.Addr(c*mem.CachelineSize))
		}
		// Flush the visited block so the next visit reaches the DIMM.
		for c := 0; c < mem.LinesPerXPLine; c++ {
			t.CLFlushOpt(addr + mem.Addr(c*mem.CachelineSize))
		}
	}

	sys.Go("fig6", 0, false, func(t *machine.Thread) {
		for i := 0; i < warmup; i++ {
			visit(t, rng.Intn(nBlocks))
		}
		sys.ResetCounters()
		for i := 0; i < visits; i++ {
			visit(t, rng.Intn(nBlocks))
		}
	})
	m.Run(sys)
	c := sys.PMCounters()
	return Fig6Point{WSSBytes: wss, PMRatio: c.PMReadRatio(), IMCRatio: c.IMCReadRatio()}
}

// fig6Units returns one unit per (generation, prefetcher setting)
// panel.
func fig6Units(o Options) []Unit {
	units := make([]Unit, 0, 8)
	for _, gen := range []Gen{G1, G2} {
		for _, set := range []PrefetchSetting{PFNone, PFHardware, PFAdjacent, PFDCUStreamer} {
			units = append(units, o.unit("fig6", gen.String()+" "+set.String(), func(m *machine.Meter) UnitResult {
				pts := fig6(m, Fig6Options{Gen: gen, Setting: set, MaxVisits: o.scale(40000, 8000)})
				return UnitResult{Data: pts, Text: FormatFig6(gen, set, pts)}
			}))
		}
	}
	return units
}

// FormatFig6 renders one panel of Fig. 6.
func FormatFig6(gen Gen, setting PrefetchSetting, points []Fig6Point) string {
	header := []string{"WSS", "PM ratio", "iMC ratio"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{HumanBytes(p.WSSBytes), F(p.PMRatio), F(p.IMCRatio)})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: read ratios, %s prefetch (%s)\n", setting, gen)
	b.WriteString(Table(header, rows))
	return b.String()
}
