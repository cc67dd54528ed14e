package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"optanesim/internal/runner"
	"optanesim/internal/sim"
	"optanesim/internal/telemetry"
)

// telemetryFactory is bench.Options.Telemetry's type.
type telemetryFactory = func(unit string) *telemetry.Recorder

// span is one timed interval of the traced run. Times are nanoseconds
// since the run started; Parent is 0 for the root span.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps the traced run's spans in memory until exit. A nil
// *tracer records nothing, so untraced passes pay one pointer test.
type tracer struct {
	runID string
	t0    time.Time
	root  int
	spans []span
}

// newTracer starts the root span, "workload"; every other span is its
// child.
func newTracer(runID string, t0 time.Time) *tracer {
	t := &tracer{runID: runID, t0: t0}
	t.spans = append(t.spans, span{ID: 1, Name: "workload"})
	t.root = 1
	return t
}

// begin opens a child span of the root and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.root, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int, attrs map[string]any) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	s.Attrs = attrs
}

// add records a finished child span of the root.
func (t *tracer) add(name string, start, end time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: t.root, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Attrs: attrs,
	})
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(struct {
		RunID string `json:"run_id"`
		Spans []span `json:"spans"`
	}{t.runID, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compModule names the simulator module each attribution component is
// charged by; the metric is simcyc.<module>.<component>.
var compModule = map[string]string{
	"issue": "machine", "compute": "machine", "numa": "machine", "other": "machine",
	"l1-hit": "cache", "l2-hit": "cache", "l3-hit": "cache",
	"hazard-stall": "imc", "imc-queue": "imc", "wpq-wait": "imc", "wpq-accept": "imc",
	"accept-pause": "imc", "flush-pipe": "imc", "fence-drain": "imc",
	"rb-hit": "optane", "wcb-hit": "optane", "ait-miss": "optane", "media-read": "optane",
	"rb-xfer": "optane", "wcb-install": "optane", "evict-rmw": "optane",
	"media-write": "optane", "periodic-wb": "optane",
	"dram": "dram",
}

// breakdownOnly records cycle attribution and nothing else worth
// keeping: a one-event ring and a sampling period no run reaches.
func breakdownOnly(unit string) *telemetry.Recorder {
	return telemetry.NewRecorder(unit, telemetry.Config{
		EventCap:    1,
		SampleEvery: sim.Cycles(math.MaxInt64 / 4),
		Breakdown:   true,
	})
}

// attribution sums the op and service banks of every unit's breakdown
// per component, in simulated cycles, plus the op count and the total of
// the per-class latency histograms.
type attribution struct {
	comp    map[string]sim.Cycles
	ops     uint64
	opTotal sim.Cycles
	metered []string
}

func attribute(results []runner.Result) attribution {
	a := attribution{comp: make(map[string]sim.Cycles)}
	for _, r := range results {
		ur, ok := unitResult(r)
		if !ok || ur.SimCycles == 0 || ur.Telemetry == nil || ur.Telemetry.Breakdown == nil {
			continue
		}
		a.metered = append(a.metered, r.ID)
		for _, tb := range ur.Telemetry.Breakdown.Tenants {
			for _, ch := range tb.Op {
				a.comp[ch.Name] += ch.Hist.Sum()
			}
			for _, ch := range tb.Svc {
				a.comp[ch.Name] += ch.Hist.Sum()
			}
			for _, ch := range tb.Classes {
				a.ops += ch.Hist.Count()
				a.opTotal += ch.Hist.Sum()
			}
		}
	}
	return a
}

// simcycNames lists the attribution metrics in report order.
func simcycNames() []string {
	var names []string
	for c := telemetry.Comp(0); c < telemetry.NumComps; c++ {
		names = append(names, fmt.Sprintf("simcyc.%s.%s", compModule[c.String()], c))
	}
	return append(names, "simcyc.ops", "simcyc.op_total")
}

// add appends the attribution metrics to ms.
func (a attribution) add(ms *metrics) {
	for c := telemetry.Comp(0); c < telemetry.NumComps; c++ {
		ms.add(fmt.Sprintf("simcyc.%s.%s", compModule[c.String()], c), float64(a.comp[c.String()])/1e6, "Mcycles")
	}
	ms.add("simcyc.ops", float64(a.ops), "count")
	ms.add("simcyc.op_total", float64(a.opTotal)/1e6, "Mcycles")
}
