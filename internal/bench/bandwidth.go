package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

// BandwidthPoint is one thread-count of the §2.2 background
// characterization: peak sequential read and nt-store write bandwidth.
type BandwidthPoint struct {
	Threads  int
	ReadGBs  float64
	WriteGBs float64
}

// BandwidthOptions scales the sweep.
type BandwidthOptions struct {
	Gen Gen
	// DIMMs is the interleave width (1 by default, like the single-DIMM
	// numbers the paper quotes).
	DIMMs int
	// Threads are the x positions; nil uses 1..16.
	Threads []int
	// BytesPerThread is the volume each thread moves per measurement.
	BytesPerThread int
}

func (o *BandwidthOptions) defaults() {
	if o.Gen == 0 {
		o.Gen = G1
	}
	if o.DIMMs <= 0 {
		o.DIMMs = 1
	}
	if o.Threads == nil {
		o.Threads = []int{1, 2, 4, 6, 8, 12, 16}
	}
	if o.BytesPerThread <= 0 {
		o.BytesPerThread = 2 * MB
	}
}

// Bandwidth reproduces the §2.2 background characteristics the paper
// builds on: read bandwidth far exceeds write bandwidth (~3x at the
// device level), and write bandwidth stops scaling after a handful of
// threads while reads keep scaling.
func Bandwidth(o BandwidthOptions) []BandwidthPoint { return bandwidth(new(Meter), o) }

func bandwidth(m *Meter, o BandwidthOptions) []BandwidthPoint {
	o.defaults()
	points := make([]BandwidthPoint, 0, len(o.Threads))
	for _, th := range o.Threads {
		points = append(points, BandwidthPoint{
			Threads:  th,
			ReadGBs:  bandwidthRun(m, o, th, false),
			WriteGBs: bandwidthRun(m, o, th, true),
		})
	}
	return points
}

func bandwidthRun(m *Meter, o BandwidthOptions, threads int, write bool) float64 {
	cfg := o.Gen.Config(threads)
	cfg.PMDIMMs = o.DIMMs
	sys := m.System(cfg)

	perThread := o.BytesPerThread / mem.XPLineSize
	var end sim.Cycles
	for w := 0; w < threads; w++ {
		// Disjoint sequential regions per thread.
		base := mem.PMBase + mem.Addr(w*(o.BytesPerThread+4*MB))
		sys.Go(fmt.Sprintf("t%d", w), w, false, func(t *machine.Thread) {
			for i := 0; i < perThread; i++ {
				xpl := base + mem.Addr(i*mem.XPLineSize)
				for c := 0; c < mem.LinesPerXPLine; c++ {
					a := xpl + mem.Addr(c*mem.CachelineSize)
					if write {
						t.NTStore(a)
					} else {
						t.Load(a)
					}
				}
				if write && i%16 == 15 {
					t.SFence()
				}
				if !write {
					// Stream through: flush so the region never fits the
					// caches and every XPLine comes from the DIMM.
					for c := 0; c < mem.LinesPerXPLine; c++ {
						t.CLFlushOpt(xpl + mem.Addr(c*mem.CachelineSize))
					}
				}
			}
			if write {
				t.SFence()
			}
			if t.Now() > end {
				end = t.Now()
			}
		})
	}
	m.Run(sys)
	secs := sys.CyclesToSeconds(end)
	if secs == 0 {
		return 0
	}
	return float64(threads*o.BytesPerThread) / secs / 1e9
}

// bandwidthUnits returns one unit per generation.
func bandwidthUnits(o Options) []Unit {
	units := make([]Unit, 0, 2)
	for _, gen := range []Gen{G1, G2} {
		units = append(units, o.unit("bandwidth", gen.String(), func(m *Meter) UnitResult {
			opts := BandwidthOptions{Gen: gen, BytesPerThread: o.scale(2*MB, 512*KB)}
			pts := bandwidth(m, opts)
			return UnitResult{Data: pts, Text: FormatBandwidth(opts, pts)}
		}))
	}
	return units
}

// FormatBandwidth renders the sweep.
func FormatBandwidth(o BandwidthOptions, points []BandwidthPoint) string {
	o.defaults()
	header := []string{"threads", "read GB/s", "nt-write GB/s"}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Threads), F(p.ReadGBs), F(p.WriteGBs),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Bandwidth (§2.2 background): sequential access, %d DIMM(s), %s\n", o.DIMMs, o.Gen)
	b.WriteString(Table(header, rows))
	return b.String()
}
