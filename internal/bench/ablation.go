package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

// AblationResult is one design-choice ablation: the same workload run
// with a mechanism as characterized by the paper versus with it
// disabled/altered, showing the mechanism is load-bearing for the
// corresponding figure.
type AblationResult struct {
	Name    string
	Metric  string
	AsPaper float64
	Ablated float64
	Comment string
}

// Ablations runs all design-choice ablations from DESIGN.md.
func Ablations() []AblationResult { return ablations(new(Meter)) }

func ablations(m *Meter) []AblationResult {
	return []AblationResult{
		ablationReadBufferExclusivity(m),
		ablationPeriodicWriteback(m),
		ablationBatchEviction(m),
		ablationEADR(m),
	}
}

// ablationReadBufferExclusivity: without cache-exclusive consumption,
// Fig. 2's repeated reads would hit the read buffer forever and RA would
// collapse toward 0 instead of flooring at 1 — the paper's C1 evidence.
func ablationReadBufferExclusivity(m *Meter) AblationResult {
	run := func(retain bool) float64 {
		cfg := G1.Config(1)
		cfg.PM.ReadBufRetainsServedLines = retain
		sys := m.System(cfg)
		const wss = 8 * KB
		nXPLines := wss / mem.XPLineSize
		sys.Go("a", 0, false, func(t *machine.Thread) {
			pass := func() {
				for i := 0; i < nXPLines; i++ {
					a := mem.PMBase + mem.Addr(i*mem.XPLineSize)
					t.Load(a)
					t.CLFlushOpt(a)
				}
			}
			pass()
			sys.ResetCounters()
			for p := 0; p < 8; p++ {
				pass()
			}
		})
		m.Run(sys)
		return sys.PMCounters().RA()
	}
	return AblationResult{
		Name:    "read-buffer cache exclusivity",
		Metric:  "RA, 8KB strided re-reads (CpX=1)",
		AsPaper: run(false),
		Ablated: run(true),
		Comment: "without consumption on serve, recurring reads never touch the media (RA->0); the measured floor of 1 proves exclusivity",
	}
}

// ablationPeriodicWriteback: disabling G1's ~5000-cycle full-line
// write-back makes small full writes coalesce in the buffer (WA -> 0),
// contradicting Fig. 3's full-write curve that sits at 1.
func ablationPeriodicWriteback(m *Meter) AblationResult {
	run := func(disable bool) float64 {
		o := Fig3Options{Gen: G1, WSS: []int{8 * KB}, Passes: 10}
		o.defaults()
		cfg := G1.Config(1)
		if disable {
			cfg.PM.PeriodicWritebackCycles = 0
		}
		return fig3RunWithConfig(m, cfg, 8*KB, 4, o.Passes)
	}
	return AblationResult{
		Name:    "periodic full-line write-back (G1)",
		Metric:  "WA, 8KB full (100%) writes",
		AsPaper: run(false),
		Ablated: run(true),
		Comment: "Fig. 3's full-write WA of ~1 at small WSS exists only because fully written XPLines are flushed every ~5000 cycles",
	}
}

// ablationBatchEviction: replacing G1's batch eviction with G2-style
// single-victim eviction softens Fig. 4's sharp 12 KB knee.
func ablationBatchEviction(m *Meter) AblationResult {
	run := func(batch int) float64 {
		cfg := G1.Config(1)
		cfg.PM.WriteBufBatchEvict = batch
		sys := m.System(cfg)
		rng := sim.NewRand(7)
		const nXPLines = 14 * KB / mem.XPLineSize
		sys.Go("a", 0, false, func(t *machine.Thread) {
			for i := 0; i < 2*nXPLines; i++ {
				t.NTStore(mem.PMBase + mem.Addr(rng.Intn(nXPLines)*mem.XPLineSize))
				if i%64 == 63 {
					t.SFence()
				}
			}
			t.SFence()
			sys.ResetCounters()
			for i := 0; i < 15000; i++ {
				t.NTStore(mem.PMBase + mem.Addr(rng.Intn(nXPLines)*mem.XPLineSize))
				if i%64 == 63 {
					t.SFence()
				}
			}
			t.SFence()
		})
		m.Run(sys)
		return sys.PMCounters().WriteBufferHitRatio()
	}
	return AblationResult{
		Name:    "G1 batch eviction at the 12KB watermark",
		Metric:  "write-buffer hit ratio, 14KB random partial writes",
		AsPaper: run(16),
		Ablated: run(1),
		Comment: "single-victim eviction (the G2 policy) keeps the hit ratio higher just past the knee — the sharp G1 drop needs batching",
	}
}

// ablationEADR: with the §6 extended-ADR platform, cacheline flushes are
// unnecessary and the strict-persistency element update gets much
// cheaper — the forward-looking platform change the paper discusses.
func ablationEADR(m *Meter) AblationResult {
	run := func(eadr bool) float64 {
		cfg := G2.Config(1)
		cfg.CPU.EADR = eadr
		sys := m.System(cfg)
		heapBase := mem.PMBase
		var perElem float64
		sys.Go("a", 0, false, func(t *machine.Thread) {
			const elems = 16 // 4KB working set
			var start sim.Cycles
			for pass := 0; pass < 40; pass++ {
				if pass == 8 {
					start = t.Now()
				}
				for i := 0; i < elems; i++ {
					a := heapBase + mem.Addr(i*mem.XPLineSize)
					t.LoadDep(a)
					t.Store(a + 64)
					t.CLWB(a + 64)
					t.SFence()
				}
			}
			total := t.Now() - start
			perElem = float64(total) / float64(32*elems)
		})
		m.Run(sys)
		return perElem
	}

	return AblationResult{
		Name:    "eADR (persistent CPU caches, §6)",
		Metric:  "cycles/element, strict persists, 4KB WSS (G2)",
		AsPaper: run(false),
		Ablated: run(true),
		Comment: "with caches inside the persistence domain, the flush+fence tax collapses to the fence's issue cost",
	}
}

// fig3RunWithConfig is fig3Run with an explicit machine configuration
// (for ablations that tweak the DIMM profile).
func fig3RunWithConfig(m *Meter, cfg machine.Config, wss, linesPerXPL, passes int) float64 {
	sys := m.System(cfg)
	nXPLines := wss / mem.XPLineSize
	if nXPLines == 0 {
		nXPLines = 1
	}
	base := mem.PMBase
	onePass := func(t *machine.Thread) {
		for i := 0; i < nXPLines; i++ {
			xpl := base + mem.Addr(i*mem.XPLineSize)
			for c := 0; c < linesPerXPL; c++ {
				t.NTStore(xpl + mem.Addr(c*mem.CachelineSize))
			}
		}
		t.SFence()
	}
	sys.Go("fig3cfg", 0, false, func(t *machine.Thread) {
		onePass(t)
		sys.ResetCounters()
		for p := 0; p < passes; p++ {
			onePass(t)
		}
		t.Compute(4 * 5000)
		t.NTStore(base)
	})
	m.Run(sys)
	c := sys.PMCounters()
	c.IMCWriteBytes -= mem.CachelineSize
	return c.WA()
}

// ablationUnits returns the experiment's single unit; the individual
// ablations are quick enough that fan-out is not worth the panel split.
func ablationUnits(o Options) []Unit {
	return []Unit{o.unit("ablation", "", func(m *Meter) UnitResult {
		results := ablations(m)
		return UnitResult{Data: results, Text: FormatAblations(results)}
	})}
}

// FormatAblations renders the ablation table.
func FormatAblations(results []AblationResult) string {
	header := []string{"design choice", "metric", "as characterized", "ablated"}
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{r.Name, r.Metric, F(r.AsPaper), F(r.Ablated)})
	}
	var b strings.Builder
	fmt.Fprintln(&b, "Ablations: each inferred mechanism is load-bearing for its figure")
	b.WriteString(Table(header, rows))
	for _, r := range results {
		fmt.Fprintf(&b, "  - %s: %s\n", r.Name, r.Comment)
	}
	return b.String()
}
