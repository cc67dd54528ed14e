package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/sim"
	"optanesim/internal/workload"
)

// Fig8Mode selects one curve family of Fig. 8.
type Fig8Mode int

// The workload modes of §3.6's element benchmark.
const (
	// Fig8Strict: pointer chase + per-element update with a persistence
	// barrier after every element (panel a).
	Fig8Strict Fig8Mode = iota
	// Fig8Relaxed: pointer chase + per-element update, one fence per
	// pass (panel b).
	Fig8Relaxed
	// Fig8Epoch: pointer chase + per-element update with one fence per
	// epoch of EpochLen elements — the middle ground between strict and
	// relaxed that §3.6 alludes to (epoch persistency).
	Fig8Epoch
	// Fig8PureRead: pointer chase only (panel c, seq_rd/rand_rd).
	Fig8PureRead
	// Fig8PureWrite: element addresses read from a DRAM array, stores
	// and persists only (panel c, *_clwb / *_nt-store).
	Fig8PureWrite
)

func (m Fig8Mode) String() string {
	switch m {
	case Fig8Relaxed:
		return "relaxed"
	case Fig8Epoch:
		return "epoch"
	case Fig8PureRead:
		return "pure-read"
	case Fig8PureWrite:
		return "pure-write"
	default:
		return "strict"
	}
}

// Fig8Point is one cell: average cycles per element.
type Fig8Point struct {
	WSSBytes int
	Cycles   float64
}

// Fig8Options selects one curve.
type Fig8Options struct {
	Gen  Gen
	Mode Fig8Mode
	// Random selects random element linkage; false is sequential.
	Random bool
	// NTStore uses non-temporal stores instead of store+clwb.
	NTStore bool
	// EpochLen is the elements-per-fence for Fig8Epoch (default 8).
	EpochLen int
	// WSS are the working-set sizes; nil uses 4 KB - 256 MB.
	WSS []int
	// MaxElements caps element visits per cell.
	MaxElements int
}

func (o *Fig8Options) defaults() {
	if o.Gen == 0 {
		o.Gen = G1
	}
	if o.WSS == nil {
		o.WSS = LogSweep(4*KB, 256*MB)
	}
	if o.MaxElements <= 0 {
		o.MaxElements = 150000
	}
	if o.EpochLen <= 0 {
		o.EpochLen = 8
	}
}

// Fig8 reproduces §3.6's user-perceived latency benchmark: a circular
// linked list of 256 B XPLine-aligned elements traversed by pointer
// chasing, updating one pad cacheline per element under the selected
// persistency model, or the pure-read/pure-write decompositions. The
// list is its traversal order (workload.ChaseOrder): each visit issues
// the dependent load of the element's next pointer, so no data plane is
// needed.
func Fig8(o Fig8Options) []Fig8Point { return fig8(new(machine.Meter), o) }

func fig8(m *machine.Meter, o Fig8Options) []Fig8Point {
	o.defaults()
	points := make([]Fig8Point, 0, len(o.WSS))
	for _, wss := range o.WSS {
		points = append(points, Fig8Point{WSSBytes: wss, Cycles: fig8Run(m, o.Gen.Config(1), o, wss)})
	}
	return points
}

// fig8Run measures one cell's cycles per element on a fresh system
// built from cfg; o must have its defaults applied, and its Gen and WSS
// are not read.
func fig8Run(m *machine.Meter, cfg machine.Config, o Fig8Options, wss int) float64 {
	sys := m.System(cfg)
	nElems := wss / workload.ElementSize
	if nElems < 2 {
		nElems = 2
	}
	elems := workload.ChaseOrder(mem.PMBase, sim.NewRand(5), nElems, o.Random)

	// Warm with one full pass (so cache-resident working sets measure
	// steady state), then measure about two passes, both bounded by
	// MaxElements.
	warmup := nElems
	if warmup > o.MaxElements {
		warmup = o.MaxElements
	}
	visits := 2*nElems + 2000
	if visits > o.MaxElements {
		visits = o.MaxElements
	}

	var perElem float64
	sys.Go("fig8", 0, false, func(t *machine.Thread) {
		update := func(elem mem.Addr) {
			pad := workload.PadLine(elem, 1)
			if o.NTStore {
				t.NTStore(pad)
			} else {
				t.Store(pad)
				t.CLWB(pad)
			}
			if o.Mode == Fig8Strict || o.Mode == Fig8PureWrite {
				t.SFence()
			}
		}

		// The traversal position persists across the warmup and measured
		// phases: with partial passes over large working sets, the
		// measured segment must not revisit the freshly warmed prefix.
		idx := 0
		run := func(n int) {
			switch o.Mode {
			case Fig8PureWrite:
				// Element addresses come from an 8 B-per-element array
				// at the start of DRAM.
				for i := 0; i < n; i++ {
					t.LoadDep(mem.DRAMBase + mem.Addr(8*(idx%nElems)))
					update(elems[idx%nElems])
					idx++
				}
			default:
				for i := 0; i < n; i++ {
					cur := elems[idx%nElems]
					t.LoadDep(cur) // the element's next pointer
					if o.Mode == Fig8Strict || o.Mode == Fig8Relaxed || o.Mode == Fig8Epoch {
						update(cur)
					}
					idx++
					if o.Mode == Fig8Relaxed && idx%nElems == 0 {
						t.SFence() // one fence per pass over the set
					}
					if o.Mode == Fig8Epoch && idx%o.EpochLen == 0 {
						t.SFence() // one fence per epoch
					}
				}
			}
		}

		run(warmup)
		start := t.Now()
		run(visits)
		perElem = float64(t.Now()-start) / float64(visits)
	})
	m.Run(sys)
	return perElem
}

// Fig8Series runs the named curves and renders them side by side.
type Fig8Series struct {
	Label  string
	Points []Fig8Point
}

// fig8Panel computes one panel of Fig. 8.
func fig8Panel(m *machine.Meter, gen Gen, mode Fig8Mode, opts Fig8Options) []Fig8Series {
	opts.Gen = gen
	opts.Mode = mode
	var out []Fig8Series
	switch mode {
	case Fig8PureRead:
		for _, random := range []bool{false, true} {
			opts.Random = random
			out = append(out, Fig8Series{Label: rdLabel(random), Points: fig8(m, opts)})
		}
	case Fig8PureWrite, Fig8Strict, Fig8Relaxed, Fig8Epoch:
		for _, nt := range []bool{false, true} {
			for _, random := range []bool{false, true} {
				opts.NTStore = nt
				opts.Random = random
				out = append(out, Fig8Series{Label: wrLabel(random, nt), Points: fig8(m, opts)})
			}
		}
	}
	return out
}

func rdLabel(random bool) string {
	if random {
		return "rand_rd"
	}
	return "seq_rd"
}

func wrLabel(random, nt bool) string {
	dir := "seq"
	if random {
		dir = "rand"
	}
	kind := "clwb"
	if nt {
		kind = "nt-store"
	}
	return dir + "_" + kind
}

// fig8PanelModes are the panels optbench regenerates (Fig8Epoch is the
// §3.6 extension, exposed through Fig8 but not part of the paper's
// figure).
var fig8PanelModes = []Fig8Mode{Fig8Strict, Fig8Relaxed, Fig8PureRead, Fig8PureWrite}

// fig8Units returns one unit per (generation, mode) panel.
func fig8Units(o Options) []Unit {
	units := make([]Unit, 0, 8)
	for _, gen := range []Gen{G1, G2} {
		for _, mode := range fig8PanelModes {
			units = append(units, o.unit("fig8", gen.String()+" "+mode.String(), func(m *machine.Meter) UnitResult {
				series := fig8Panel(m, gen, mode, Fig8Options{MaxElements: o.scale(150000, 30000)})
				return UnitResult{Data: series, Text: FormatFig8(gen, mode, series)}
			}))
		}
	}
	return units
}

// FormatFig8 renders a panel.
func FormatFig8(gen Gen, mode Fig8Mode, series []Fig8Series) string {
	header := []string{"WSS"}
	for _, s := range series {
		header = append(header, s.Label)
	}
	rows := make([][]string, 0)
	for i := range series[0].Points {
		row := []string{HumanBytes(series[0].Points[i].WSSBytes)}
		for _, s := range series {
			row = append(row, F1(s.Points[i].Cycles))
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: cycles per element, %s mode (%s)\n", mode, gen)
	b.WriteString(Table(header, rows))
	return b.String()
}
