package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/sim"
	"optanesim/internal/xpline"
)

// Fig14Point is one x-position of Fig. 14: latency and throughput of
// the direct and redirected access paths at one thread count.
type Fig14Point struct {
	Threads int
	// BaseCycles / OptCycles are average cycles per 256 B block.
	BaseCycles, OptCycles float64
	// BaseGBs / OptGBs are aggregate demanded-data throughput in GB/s.
	BaseGBs, OptGBs float64
}

// Fig14Options scales the experiment.
type Fig14Options struct {
	Gen Gen
	// Threads are the x positions; nil uses 1..16 (G1) or 1..24 (G2).
	Threads []int
	// WSS is the PM region size (well beyond the caches).
	WSS int
	// BlocksPerThread is the number of measured block visits per thread.
	BlocksPerThread int
}

func (o *Fig14Options) defaults() {
	if o.Gen == 0 {
		o.Gen = G1
	}
	if o.Threads == nil {
		max := 16
		if o.Gen == G2 {
			max = 24
		}
		for t := 1; t <= max; t += 1 {
			o.Threads = append(o.Threads, t)
		}
	}
	if o.WSS <= 0 {
		o.WSS = 256 * MB
	}
	if o.BlocksPerThread <= 0 {
		o.BlocksPerThread = 6000
	}
}

// Fig14 reproduces §4.3's Fig. 14: the latency/throughput tradeoff of
// redirecting XPLine-aligned random accesses through a DRAM staging
// buffer. The extra copy hurts at small thread counts; once
// misprefetching saturates the PM bandwidth, the redirected path wins.
func Fig14(o Fig14Options) []Fig14Point { return fig14(new(machine.Meter), o) }

func fig14(m *machine.Meter, o Fig14Options) []Fig14Point {
	o.defaults()
	points := make([]Fig14Point, 0, len(o.Threads))
	for _, th := range o.Threads {
		baseCyc, baseGBs := fig14Run(m, o, th, false)
		optCyc, optGBs := fig14Run(m, o, th, true)
		points = append(points, Fig14Point{
			Threads:    th,
			BaseCycles: baseCyc, OptCycles: optCyc,
			BaseGBs: baseGBs, OptGBs: optGBs,
		})
	}
	return points
}

func fig14Run(m *machine.Meter, o Fig14Options, threads int, optimized bool) (cyclesPerBlock, gbs float64) {
	sys := m.System(o.Gen.Config(threads))
	nBlocks := o.WSS / mem.XPLineSize
	base := mem.PMBase

	var busy sim.Cycles
	var blocks int
	var endMax sim.Cycles
	for w := 0; w < threads; w++ {
		rng := sim.NewRand(uint64(31 + w))
		staging := mem.DRAMBase + mem.Addr(w*mem.XPLineSize) // one XPLine per thread
		sys.Go(fmt.Sprintf("t%d", w), w, false, func(t *machine.Thread) {
			visit := func() {
				block := base + mem.Addr(rng.Intn(nBlocks)*mem.XPLineSize)
				if optimized {
					xpline.Redirected(t, block, staging)
				} else {
					xpline.Direct(t, block)
				}
			}
			warm := o.BlocksPerThread / 8
			for i := 0; i < warm; i++ {
				visit()
			}
			start := t.Now()
			for i := 0; i < o.BlocksPerThread; i++ {
				visit()
			}
			busy += t.Now() - start
			if t.Now() > endMax {
				endMax = t.Now()
			}
			blocks += o.BlocksPerThread
		})
	}
	m.Run(sys)

	cyclesPerBlock = float64(busy) / float64(blocks)
	secs := sys.CyclesToSeconds(endMax)
	if secs > 0 {
		gbs = float64(blocks) * mem.XPLineSize / secs / 1e9
	}
	return cyclesPerBlock, gbs
}

// fig14Units returns one unit per generation.
func fig14Units(o Options) []Unit {
	units := make([]Unit, 0, 2)
	for _, gen := range []Gen{G1, G2} {
		units = append(units, o.unit("fig14", gen.String(), func(m *machine.Meter) UnitResult {
			opts := Fig14Options{Gen: gen, BlocksPerThread: o.scale(6000, 2000)}
			if o.Quick {
				opts.Threads = []int{1, 2, 4, 8, 12, 16}
			}
			pts := fig14(m, opts)
			return UnitResult{Data: pts, Text: FormatFig14(gen, pts)}
		}))
	}
	return units
}

// FormatFig14 renders the panel pair for one generation.
func FormatFig14(gen Gen, points []Fig14Point) string {
	header := []string{"threads", "lat(prefetch)", "lat(optimized)", "GB/s(prefetch)", "GB/s(optimized)"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Threads),
			F1(p.BaseCycles), F1(p.OptCycles),
			F(p.BaseGBs), F(p.OptGBs),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14: access-redirection performance tradeoff (%s)\n", gen)
	b.WriteString(Table(header, rows))
	return b.String()
}
