package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"optanesim/internal/sim"
)

// JSONL sinks: one self-describing record per line, deterministic field
// order, so event logs and sampler series can be diffed, grepped, and
// asserted byte-identical across worker counts.

// EventRecord is one event-log line.
type EventRecord struct {
	Unit string     `json:"unit"`
	Src  string     `json:"src"`
	Kind string     `json:"kind"`
	T    sim.Cycles `json:"t"`
	Addr string     `json:"addr"`
	Arg  uint64     `json:"arg"`
}

// SampleRecord is one sampler-series line.
type SampleRecord struct {
	Unit   string     `json:"unit"`
	Series string     `json:"series"`
	T      sim.Cycles `json:"t"`
	V      float64    `json:"v"`
}

// WriteEventsJSONL writes the recordings' event streams as JSON lines in
// recording order (events within a recording stay oldest-first).
func WriteEventsJSONL(w io.Writer, recs ...*Recording) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		for _, e := range rec.Events {
			if err := enc.Encode(EventRecord{
				Unit: rec.Unit,
				Src:  rec.Source(e.Src),
				Kind: e.Kind.String(),
				T:    e.At,
				Addr: e.Addr.String(),
				Arg:  e.Arg,
			}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteSamplesJSONL writes the recordings' sampler series as JSON lines,
// one line per sample, series in registration order.
func WriteSamplesJSONL(w io.Writer, recs ...*Recording) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		for _, s := range rec.Series {
			for _, sm := range s.Samples {
				if err := enc.Encode(SampleRecord{
					Unit:   rec.Unit,
					Series: s.Name,
					T:      sm.T,
					V:      sm.V,
				}); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// HistRecord is one histogram-summary line: a HistSummary plus the unit
// it came from.
type HistRecord struct {
	Unit string `json:"unit"`
	HistSummary
}

// WriteHistsJSONL writes the recordings' breakdown histograms as JSON
// lines, one summary per (tenant, scope, component), in the recordings'
// deterministic order. Recordings without a breakdown contribute no
// lines.
func WriteHistsJSONL(w io.Writer, recs ...*Recording) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range recs {
		if rec == nil || rec.Breakdown == nil {
			continue
		}
		for _, s := range rec.Breakdown.Summaries() {
			if err := enc.Encode(HistRecord{Unit: rec.Unit, HistSummary: s}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// UnitSeries is one unit's sampler series as reconstructed from a JSONL
// sample log.
type UnitSeries struct {
	Unit   string
	Series []Series
}

// ReadSamplesJSONL parses a WriteSamplesJSONL document back into
// per-unit series, preserving first-appearance order of units and of
// series within a unit; the tests read the samples sink through it.
func ReadSamplesJSONL(r io.Reader) ([]UnitSeries, error) {
	var out []UnitSeries
	unitIdx := make(map[string]int)
	seriesIdx := make(map[string]map[string]int)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec SampleRecord
		if err := json.Unmarshal(text, &rec); err != nil {
			return nil, fmt.Errorf("telemetry: samples line %d: %w", line, err)
		}
		ui, ok := unitIdx[rec.Unit]
		if !ok {
			ui = len(out)
			unitIdx[rec.Unit] = ui
			seriesIdx[rec.Unit] = make(map[string]int)
			out = append(out, UnitSeries{Unit: rec.Unit})
		}
		si, ok := seriesIdx[rec.Unit][rec.Series]
		if !ok {
			si = len(out[ui].Series)
			seriesIdx[rec.Unit][rec.Series] = si
			out[ui].Series = append(out[ui].Series, Series{Name: rec.Series})
		}
		s := &out[ui].Series[si]
		s.Samples = append(s.Samples, Sample{T: rec.T, V: rec.V})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
