package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/prefetch"
)

// RAPVariant selects the persist sequence of Algorithm 1.
type RAPVariant int

// The persist variants of Fig. 7.
const (
	RAPClwbMFence RAPVariant = iota
	RAPClwbSFence
	RAPNTStoreMFence
)

func (v RAPVariant) String() string {
	switch v {
	case RAPClwbSFence:
		return "clwb+sfence"
	case RAPNTStoreMFence:
		return "nt-store+mfence"
	default:
		return "clwb+mfence"
	}
}

// MarshalText renders the variant name in JSON records (including as a
// map key, where encoding/json sorts the textual keys).
func (v RAPVariant) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// Fig7Point is one x-position of one Fig. 7 panel: per-iteration latency
// of Algorithm 1 at one read-after-persist distance.
type Fig7Point struct {
	Distance int // in cachelines
	Cycles   float64
}

// Fig7Options selects one panel cell.
type Fig7Options struct {
	Gen     Gen
	Variant RAPVariant
	// PM selects persistent memory; false runs the DRAM baseline.
	PM bool
	// Remote places the thread on the far socket.
	Remote bool
	// Distances are the x positions; nil uses 0..40.
	Distances []int
	// Passes is the number of measured passes over the 4 KB working set.
	Passes int
}

func (o *Fig7Options) defaults() {
	if o.Gen == 0 {
		o.Gen = G1
	}
	if o.Distances == nil {
		o.Distances = []int{0, 1}
		for d := 2; d <= 40; d += 2 {
			o.Distances = append(o.Distances, d)
		}
	}
	if o.Passes <= 0 {
		o.Passes = 40
	}
}

// Fig7 reproduces §3.5's read-after-persist experiment (Algorithm 1):
// walk a 4 KB region one cacheline at a time, persisting each line
// (store+clwb or nt-store, then a fence), then loading the line persisted
// `distance` iterations earlier. It reports average cycles per iteration.
func Fig7(o Fig7Options) []Fig7Point { return fig7(new(Meter), o) }

func fig7(m *Meter, o Fig7Options) []Fig7Point {
	o.defaults()
	points := make([]Fig7Point, 0, len(o.Distances))
	for _, d := range o.Distances {
		points = append(points, Fig7Point{Distance: d, Cycles: fig7Run(m, o, d)})
	}
	return points
}

func fig7Run(m *Meter, o Fig7Options, distance int) float64 {
	cfg := o.Gen.Config(1)
	// The latency probe runs with CPU prefetchers disabled: its read
	// stream is sequential, and prefetching would hide exactly the
	// hazard the experiment measures.
	cfg.Prefetch = prefetch.None()
	sys := m.System(cfg)
	const wss = 4 * KB
	base := mem.Addr(1 << 20)
	if o.PM {
		base = mem.PMBase
	}

	iteration := func(t *machine.Thread, off int) {
		addr := base + mem.Addr(off)
		switch o.Variant {
		case RAPNTStoreMFence:
			t.NTStore(addr)
			t.MFence()
		case RAPClwbSFence:
			t.Store(addr)
			t.CLWB(addr)
			t.SFence()
		default:
			t.Store(addr)
			t.CLWB(addr)
			t.MFence()
		}
		read := base + mem.Addr((off+wss-distance*mem.CachelineSize)%wss)
		t.Load(read)
	}

	var perIter float64
	sys.Go("fig7", 0, o.Remote, func(t *machine.Thread) {
		// Warmup passes to reach steady state.
		for p := 0; p < 3; p++ {
			for off := 0; off < wss; off += mem.CachelineSize {
				iteration(t, off)
			}
		}
		start := t.Now()
		iters := 0
		for p := 0; p < o.Passes; p++ {
			for off := 0; off < wss; off += mem.CachelineSize {
				iteration(t, off)
				iters++
			}
		}
		perIter = float64(t.Now()-start) / float64(iters)
	})
	m.Run(sys)
	return perIter
}

// Fig7Variants lists the curves of one panel (DRAM panels omit
// nt-store).
func Fig7Variants(pm bool) []RAPVariant {
	variants := []RAPVariant{RAPClwbMFence, RAPClwbSFence}
	if pm {
		variants = append(variants, RAPNTStoreMFence)
	}
	return variants
}

// fig7Curves runs all of one panel's variants and returns the raw
// series.
func fig7Curves(m *Meter, gen Gen, pm, remote bool, opts Fig7Options) map[RAPVariant][]Fig7Point {
	opts.Gen = gen
	opts.PM = pm
	opts.Remote = remote
	series := make(map[RAPVariant][]Fig7Point)
	for _, v := range Fig7Variants(pm) {
		opts.Variant = v
		series[v] = fig7(m, opts)
	}
	return series
}

// Fig7Curve is one variant's series of a panel in JSON-friendly form:
// curves carry their variant name and appear in the panel's legend
// order rather than as map entries.
type Fig7Curve struct {
	Variant string
	Points  []Fig7Point
}

// fig7PanelName labels one panel cell, e.g. "G1 local PM".
func fig7PanelName(gen Gen, pm, remote bool) string {
	dev, socket := "DRAM", "local"
	if pm {
		dev = "PM"
	}
	if remote {
		socket = "remote"
	}
	return gen.String() + " " + socket + " " + dev
}

// fig7Units returns one unit per (generation, device, socket) panel
// cell; each unit runs all of the cell's persist variants.
func fig7Units(o Options) []Unit {
	opts := Fig7Options{Passes: o.scale(40, 10)}
	if o.Quick {
		opts.Distances = []int{0, 1, 2, 4, 8, 16, 40}
	}
	units := make([]Unit, 0, 8)
	for _, gen := range []Gen{G1, G2} {
		for _, cell := range []struct{ pm, remote bool }{
			{true, false}, {false, false}, {true, true}, {false, true},
		} {
			units = append(units, o.unit("fig7", fig7PanelName(gen, cell.pm, cell.remote), func(m *Meter) UnitResult {
				curves := fig7Curves(m, gen, cell.pm, cell.remote, opts)
				ordered := make([]Fig7Curve, 0, len(curves))
				for _, v := range Fig7Variants(cell.pm) {
					ordered = append(ordered, Fig7Curve{Variant: v.String(), Points: curves[v]})
				}
				return UnitResult{Data: ordered, Text: formatFig7(gen, cell.pm, cell.remote, curves)}
			}))
		}
	}
	return units
}

// formatFig7 renders precomputed panel curves.
func formatFig7(gen Gen, pm, remote bool, series map[RAPVariant][]Fig7Point) string {
	variants := Fig7Variants(pm)

	devName := "DRAM"
	if pm {
		devName = "PM"
	}
	socket := "local"
	if remote {
		socket = "remote"
	}
	header := []string{"distance"}
	for _, v := range variants {
		header = append(header, v.String())
	}
	rows := make([][]string, 0, len(series[variants[0]]))
	for i, p := range series[variants[0]] {
		row := []string{fmt.Sprintf("%d", p.Distance)}
		for _, v := range variants {
			row = append(row, F1(series[v][i].Cycles))
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: RAP latency (cycles/iteration) on %s %s (%s)\n", socket, devName, gen)
	b.WriteString(Table(header, rows))
	return b.String()
}
