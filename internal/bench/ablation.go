package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/machine"
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
func Ablations() []AblationResult { return ablations(new(machine.Meter)) }

func ablations(m *machine.Meter) []AblationResult {
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
func ablationReadBufferExclusivity(m *machine.Meter) AblationResult {
	run := func(retain bool) float64 {
		cfg := G1.Config(1)
		cfg.PM.ReadBufRetainsServedLines = retain
		return fig2Cell(m, cfg, Fig2Options{Passes: 8}, 8*KB, 1)
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
func ablationPeriodicWriteback(m *machine.Meter) AblationResult {
	run := func(disable bool) float64 {
		cfg := G1.Config(1)
		if disable {
			cfg.PM.PeriodicWritebackCycles = 0
		}
		return fig3Cell(m, cfg, Fig3Options{Passes: 10}, 8*KB, 4)
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
func ablationBatchEviction(m *machine.Meter) AblationResult {
	run := func(batch int) float64 {
		cfg := G1.Config(1)
		cfg.PM.WriteBufBatchEvict = batch
		return fig4Run(m, cfg, 14*KB, 15000)
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
// The cell is Fig. 8's strict sequential chase over 4 KB (16 elements),
// measured over 512 visits.
func ablationEADR(m *machine.Meter) AblationResult {
	run := func(eadr bool) float64 {
		cfg := G2.Config(1)
		cfg.CPU.EADR = eadr
		o := Fig8Options{Mode: Fig8Strict, MaxElements: 512}
		o.defaults()
		return fig8Run(m, cfg, o, 4*KB)
	}
	return AblationResult{
		Name:    "eADR (persistent CPU caches, §6)",
		Metric:  "cycles/element, strict persists, 4KB WSS (G2)",
		AsPaper: run(false),
		Ablated: run(true),
		Comment: "with caches inside the persistence domain, the flush+fence tax collapses to the fence's issue cost",
	}
}

// ablationUnits returns the experiment's single unit; the individual
// ablations are quick enough that fan-out is not worth the panel split.
func ablationUnits(o Options) []Unit {
	return []Unit{o.unit("ablation", "", func(m *machine.Meter) UnitResult {
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
