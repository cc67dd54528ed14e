package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

func TestStreamRingOverflow(t *testing.T) {
	s := newStream(4)
	for i := 0; i < 10; i++ {
		s.emit(Event{At: sim.Cycles(i), Kind: KindRBHit})
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if s.Total() != 10 {
		t.Fatalf("Total = %d, want 10", s.Total())
	}
	if s.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", s.Dropped())
	}
	evs := s.Events()
	for i, e := range evs {
		if want := sim.Cycles(6 + i); e.At != want {
			t.Fatalf("Events()[%d].At = %d, want %d (oldest-first tail)", i, e.At, want)
		}
	}
}

func TestKindNamesDistinct(t *testing.T) {
	seen := make(map[string]Kind)
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no wire name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %d and %d share wire name %q", prev, k, name)
		}
		seen[name] = k
	}
}

func TestRecorderRebasesRuns(t *testing.T) {
	r := NewRecorder("u", Config{EventCap: 16, SampleEvery: 100})
	depth := 0.0
	r.RegisterGauge("depth", func(now sim.Cycles) float64 { return depth })
	p := r.Probe("dimm0")

	// Run 1: local cycles 0..500.
	depth = 1
	p.Emit(40, KindRBMiss, mem.PMBase, 0)
	r.MaybeSample(40)
	r.NoteRunEnd(500)

	// Run 2 starts over at local cycle 0; the recorder must splice it
	// after run 1 on the unit timeline.
	depth = 2
	p.Emit(10, KindRBHit, mem.PMBase, 0)
	r.MaybeSample(10)
	r.NoteRunEnd(300)

	if r.Cycles() != 800 {
		t.Fatalf("Cycles = %d, want 800", r.Cycles())
	}
	rec := r.Snapshot()
	if rec.EndCycles != 800 {
		t.Fatalf("EndCycles = %d, want 800", rec.EndCycles)
	}
	if len(rec.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(rec.Events))
	}
	if rec.Events[0].At != 40 || rec.Events[1].At != 510 {
		t.Fatalf("event times = %d, %d; want 40, 510", rec.Events[0].At, rec.Events[1].At)
	}
	if got := rec.Source(rec.Events[0].Src); got != "dimm0" {
		t.Fatalf("source = %q, want dimm0", got)
	}
	if len(rec.Series) != 1 {
		t.Fatalf("got %d series, want 1", len(rec.Series))
	}
	samples := rec.Series[0].Samples
	// 40 (sampled), 500 (run-end snapshot, which also pushes the next due
	// time to 600 so the run-2 sample at unit-time 510 coalesces into it),
	// 800 (run end).
	want := []Sample{{40, 1}, {500, 1}, {800, 2}}
	if len(samples) != len(want) {
		t.Fatalf("got %d samples %v, want %d", len(samples), samples, len(want))
	}
	for i, s := range samples {
		if s != want[i] {
			t.Fatalf("sample[%d] = %+v, want %+v", i, s, want[i])
		}
	}
}

func TestProbeCachedPerSource(t *testing.T) {
	r := NewRecorder("u", Config{})
	a, b := r.Probe("L3"), r.Probe("imc-pm")
	if a == b || a.src == b.src {
		t.Fatalf("distinct sources share a probe")
	}
	if again := r.Probe("L3"); again != a {
		t.Fatalf("re-registering a source minted a new probe")
	}
}

func TestGaugeReplacePreservesSeries(t *testing.T) {
	r := NewRecorder("u", Config{SampleEvery: 10})
	r.RegisterGauge("g", func(now sim.Cycles) float64 { return 1 })
	r.MaybeSample(0)
	r.RegisterGauge("g", func(now sim.Cycles) float64 { return 2 })
	r.MaybeSample(20)
	rec := r.Snapshot()
	if len(rec.Series) != 1 || len(rec.Series[0].Samples) != 2 {
		t.Fatalf("series not continued across re-registration: %+v", rec.Series)
	}
	if rec.Series[0].Samples[0].V != 1 || rec.Series[0].Samples[1].V != 2 {
		t.Fatalf("samples = %+v, want values 1 then 2", rec.Series[0].Samples)
	}
}

func testRecording(t *testing.T) *Recording {
	t.Helper()
	r := NewRecorder("fig2/G1", Config{EventCap: 64, SampleEvery: 50})
	occ := 0.0
	r.RegisterGauge("read_buf_lines", func(now sim.Cycles) float64 { return occ })
	p := r.Probe("dimm0")
	q := r.Probe("imc-pm")
	for i := 0; i < 8; i++ {
		at := sim.Cycles(i * 30)
		occ = float64(i % 4)
		if i%2 == 0 {
			p.Emit(at, KindRBMiss, mem.PMBase+mem.Addr(i*64), 0)
		} else {
			p.Emit(at, KindRBHit, mem.PMBase+mem.Addr(i*64), 0)
		}
		q.Emit(at+5, KindWPQEnqueue, mem.PMBase+mem.Addr(i*64), uint64(i%3))
		r.MaybeSample(at)
	}
	r.NoteRunEnd(300)
	return r.Snapshot()
}

func TestChromeTraceWriteAndValidate(t *testing.T) {
	rec := testRecording(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rec); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateChromeTrace: %v", err)
	}
	// 16 instants + sampler counter samples.
	if n < 16 {
		t.Fatalf("validated %d non-metadata events, want >= 16", n)
	}
	names, err := EventNames(buf.Bytes())
	if err != nil {
		t.Fatalf("EventNames: %v", err)
	}
	for _, want := range []string{"rb-hit", "rb-miss", "wpq-enq", "read_buf_lines"} {
		if names[want] == 0 {
			t.Fatalf("trace is missing %q events; have %v", want, names)
		}
	}

	// Determinism: a second export of the same recording is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, rec); err != nil {
		t.Fatalf("WriteChromeTrace (2nd): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("repeated exports differ")
	}
}

func TestValidateChromeTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		`not json`,
		`{}`,
		`{"traceEvents":[{"ph":"i","ts":1,"pid":0}]}`,             // no name
		`{"traceEvents":[{"name":"x","ph":"Z","ts":1,"pid":0}]}`,  // bad phase
		`{"traceEvents":[{"name":"x","ph":"i","pid":0}]}`,         // no ts
		`{"traceEvents":[{"name":"x","ph":"i","ts":1}]}`,          // no pid
		`{"traceEvents":[{"name":"x","ph":"i","ts":-5,"pid":0}]}`, // negative ts
		`{"traceEvents":[{"name":"x","ph":"i","ts":1,"pid":-1}]}`, // negative pid
	}
	for _, c := range cases {
		if _, err := ValidateChromeTrace([]byte(c)); err == nil {
			t.Errorf("ValidateChromeTrace accepted %s", c)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	rec := testRecording(t)

	var evbuf bytes.Buffer
	if err := WriteEventsJSONL(&evbuf, rec); err != nil {
		t.Fatalf("WriteEventsJSONL: %v", err)
	}
	if got := strings.Count(evbuf.String(), "\n"); got != len(rec.Events) {
		t.Fatalf("event log has %d lines, want %d", got, len(rec.Events))
	}

	var smbuf bytes.Buffer
	if err := WriteSamplesJSONL(&smbuf, rec); err != nil {
		t.Fatalf("WriteSamplesJSONL: %v", err)
	}
	units, err := ReadSamplesJSONL(&smbuf)
	if err != nil {
		t.Fatalf("ReadSamplesJSONL: %v", err)
	}
	if len(units) != 1 || units[0].Unit != "fig2/G1" {
		t.Fatalf("round-trip units = %+v", units)
	}
	if len(units[0].Series) != len(rec.Series) {
		t.Fatalf("round-trip series count = %d, want %d", len(units[0].Series), len(rec.Series))
	}
	for i, s := range units[0].Series {
		orig := rec.Series[i]
		if s.Name != orig.Name || len(s.Samples) != len(orig.Samples) {
			t.Fatalf("series %d mismatch: %+v vs %+v", i, s, orig)
		}
		for j, sm := range s.Samples {
			if sm != orig.Samples[j] {
				t.Fatalf("series %q sample %d = %+v, want %+v", s.Name, j, sm, orig.Samples[j])
			}
		}
	}
}

func TestLiveServer(t *testing.T) {
	live := NewLive(4, 10, func() (uint64, uint64) { return 1234, 56789 })
	addr, err := live.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer live.Stop()

	live.UnitStarted("fig2/G1")
	live.UnitDone("fig2/G1", 1500000, 4200, false)
	live.UnitStarted("fig4/both")

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"optanesim_workers 4",
		"optanesim_units_total 10",
		"optanesim_units_running 1",
		"optanesim_units_done 1",
		"optanesim_sim_ops_total 1234",
		"optanesim_sim_cycles_total 56789",
		`optanesim_unit_running_seconds{unit="fig4/both"}`,
		`optanesim_unit_sim_cycles{unit="fig2/G1"} 4200`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	if !strings.Contains(get("/debug/vars"), "memstats") {
		t.Fatalf("/debug/vars is not serving expvar")
	}
	if !strings.Contains(get("/debug/pprof/"), "pprof") {
		t.Fatalf("/debug/pprof/ is not serving the pprof index")
	}
}
