package bench

import (
	"bytes"
	"embed"
	"fmt"
	"strings"

	"optanesim/internal/replay"
	"optanesim/internal/sim"
)

// replayTraces bundles the sample traces the replay experiment ships
// with, so the units run from any working directory (optbench, CI, the
// golden tests).
//
//go:embed testdata/traces/*.trace
var replayTraces embed.FS

// replaySpec describes one bundled trace and how it replays.
type replaySpec struct {
	// Key names the unit ("cori", "ram") and Path the embedded file.
	Key, Path string
	// Threads/Assign shape the deterministic multi-thread replay: the
	// cori sample carries explicit thread IDs, the ramulator sample is
	// spread by cacheline hash.
	Threads int
	Assign  replay.Assign
}

var replaySpecs = []replaySpec{
	{Key: "cori", Path: "testdata/traces/mixed.cori.trace", Threads: 2, Assign: replay.AssignTrace},
	{Key: "ram", Path: "testdata/traces/stream.ram.trace", Threads: 4, Assign: replay.AssignAddr},
}

// ReplayResult is the structured outcome of replaying one bundled
// trace on one generation: parse statistics plus the simulated traffic
// the replay produced. Every field is a pure function of the trace and
// the simulator, so records are byte-identical across runs and worker
// counts.
type ReplayResult struct {
	Trace           string              `json:"trace"`
	Format          string              `json:"format"`
	ParsedOps       int                 `json:"parsed_ops"`
	SkippedLines    int                 `json:"skipped_lines"`
	Threads         int                 `json:"threads"`
	Assign          string              `json:"assign"`
	Passes          int                 `json:"passes"`
	MachineOps      uint64              `json:"machine_ops"`
	EndCycles       sim.Cycles          `json:"end_cycles"`
	RA              float64             `json:"ra"`
	WA              float64             `json:"wa"`
	IMCReadBytes    uint64              `json:"imc_read_bytes"`
	IMCWriteBytes   uint64              `json:"imc_write_bytes"`
	MediaReadBytes  uint64              `json:"media_read_bytes"`
	MediaWriteBytes uint64              `json:"media_write_bytes"`
	PerThread       []replay.ThreadStat `json:"per_thread"`
}

// replayTrace parses and replays one bundled trace at the given scale.
func replayTrace(m *Meter, gen Gen, spec replaySpec, passes int) (ReplayResult, error) {
	raw, err := replayTraces.ReadFile(spec.Path)
	if err != nil {
		return ReplayResult{}, fmt.Errorf("bench: bundled trace %s: %w", spec.Path, err)
	}
	ops, st, err := replay.ReadAll(bytes.NewReader(raw), replay.Options{Strict: true})
	if err != nil {
		return ReplayResult{}, fmt.Errorf("bench: parsing %s: %w", spec.Path, err)
	}
	res := replay.Exec(gen.Config(spec.Threads), ops, replay.ExecOptions{
		Threads: spec.Threads,
		Assign:  spec.Assign,
		Passes:  passes,
		Run:     m.Run,
	})
	return ReplayResult{
		Trace:           spec.Key,
		Format:          st.Format.String(),
		ParsedOps:       st.Ops,
		SkippedLines:    st.Skipped,
		Threads:         spec.Threads,
		Assign:          spec.Assign.String(),
		Passes:          passes,
		MachineOps:      res.Ops,
		EndCycles:       res.EndCycles,
		RA:              res.PM.RA(),
		WA:              res.PM.WA(),
		IMCReadBytes:    res.PM.IMCReadBytes,
		IMCWriteBytes:   res.PM.IMCWriteBytes,
		MediaReadBytes:  res.PM.MediaReadBytes,
		MediaWriteBytes: res.PM.MediaWriteBytes,
		PerThread:       res.Threads,
	}, nil
}

// replayUnits returns one unit per (bundled trace, generation).
func replayUnits(o Options) []Unit {
	units := make([]Unit, 0, len(replaySpecs)*2)
	for _, spec := range replaySpecs {
		for _, gen := range []Gen{G1, G2} {
			units = append(units, o.unit("replay", gen.String()+" "+spec.Key, func(m *Meter) UnitResult {
				r, err := replayTrace(m, gen, spec, o.scale(12, 3))
				if err != nil {
					panic(err) // bundled traces are committed; a parse failure is a bug
				}
				return UnitResult{Data: r, Text: fmt.Sprintf("[%s] %s", gen, FormatReplay(r))}
			}))
		}
	}
	return units
}

// FormatReplay renders one replay's summary table.
func FormatReplay(r ReplayResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Trace replay: %s (%s format, %d records, %d threads/%s, %d passes)\n",
		r.Trace, r.Format, r.ParsedOps, r.Threads, r.Assign, r.Passes)
	rows := [][]string{
		{"machine ops", fmt.Sprintf("%d", r.MachineOps)},
		{"simulated cycles", fmt.Sprintf("%d", r.EndCycles)},
		{"read amplification", F(r.RA)},
		{"write amplification", F(r.WA)},
		{"iMC read/write bytes", fmt.Sprintf("%d/%d", r.IMCReadBytes, r.IMCWriteBytes)},
		{"media read/write bytes", fmt.Sprintf("%d/%d", r.MediaReadBytes, r.MediaWriteBytes)},
	}
	b.WriteString(Table([]string{"metric", "value"}, rows))
	for _, t := range r.PerThread {
		fmt.Fprintf(&b, "thread %-10s %8d ops  %12d cycles\n", t.Name, t.Ops, t.Cycles)
	}
	return b.String()
}
