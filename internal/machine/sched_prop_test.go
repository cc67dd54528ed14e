package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"optanesim/internal/mem"
	"optanesim/internal/sim"
	"optanesim/internal/telemetry"
	"optanesim/internal/trace"
)

// The property tests below pin the lookahead-window scheduler (sched.go)
// against the classic per-op min-time baton, which survives as the
// compatSched reference: grant sets the horizon to horizonAlways, so
// every operation re-enters the heap exactly as the old scheduler's
// per-op pickNext did. For randomized thread placements and op mixes,
// every simulated outcome — final time, per-thread clocks (final and
// sampled mid-script), op counts, PM/DRAM traffic and, with a recorder
// attached, the recorded event stream, gauge series and
// cycle-attribution histograms — must be identical between the two
// schedulers.

// schedOpKind enumerates the operations a generated script can issue.
type schedOpKind int

const (
	opLoad schedOpKind = iota
	opLoadDep
	opStore
	opNTStore
	opCLWB
	opCLFlushOpt
	opSFence
	opMFence
	opCompute
	opLoadParallel
	opAVXCopy
	opSample // record the thread's clock
	schedOpKinds
)

// schedOp is one scripted operation.
type schedOp struct {
	kind schedOpKind
	addr mem.Addr
	aux  mem.Addr   // second address (LoadParallel, AVXCopy dst)
	n    sim.Cycles // Compute cycles
}

// schedScenario is one randomized workload: thread placements plus
// pre-generated op scripts, so both scheduler modes replay the exact
// same operation streams. record attaches a telemetry recorder — event
// stream, a short gauge-sampling period and cycle attribution — whose
// recording joins the compared outcome.
type schedScenario struct {
	cores   int
	remote  []bool
	coreOf  []int
	scripts [][]schedOp
	record  bool
}

// genScenario builds a deterministic random scenario. Threads address a
// mix of private and shared PM/DRAM lines; the shared lines are what
// stress the contention-ordering guarantee.
func genScenario(seed int64) schedScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := schedScenario{cores: 1 + rng.Intn(4)}
	nthreads := 1 + rng.Intn(6)
	for ti := 0; ti < nthreads; ti++ {
		sc.coreOf = append(sc.coreOf, rng.Intn(sc.cores))
		sc.remote = append(sc.remote, rng.Intn(8) == 0)
		nops := 200 + rng.Intn(1800)
		script := make([]schedOp, 0, nops)
		// Per-thread private region plus a region shared by all threads.
		private := mem.PMBase + mem.Addr(0x100000*(ti+1))
		shared := mem.PMBase
		dram := mem.Addr(0x4000 * (ti + 1))
		for oi := 0; oi < nops; oi++ {
			var a mem.Addr
			switch rng.Intn(3) {
			case 0:
				a = shared + mem.Addr(rng.Intn(64)*mem.CachelineSize)
			case 1:
				a = private + mem.Addr(rng.Intn(128)*mem.CachelineSize)
			default:
				a = dram + mem.Addr(rng.Intn(128)*mem.CachelineSize)
			}
			op := schedOp{kind: schedOpKind(rng.Intn(int(schedOpKinds))), addr: a}
			switch op.kind {
			case opCompute:
				op.n = sim.Cycles(1 + rng.Intn(50))
			case opLoadParallel:
				op.aux = private + mem.Addr(rng.Intn(128)*mem.CachelineSize)
			case opAVXCopy:
				// src must be PM, dst DRAM (the §4.3 staging copy).
				op.addr = private + mem.Addr(rng.Intn(32)*mem.XPLineSize)
				op.aux = dram + mem.Addr(rng.Intn(32)*mem.XPLineSize)
			}
			script = append(script, op)
		}
		sc.scripts = append(sc.scripts, script)
	}
	return sc
}

// schedOutcome captures everything a scheduler change could corrupt.
type schedOutcome struct {
	end     sim.Cycles
	nows    []sim.Cycles
	ops     []uint64
	samples [][]sim.Cycles
	pm      trace.Counters
	dram    trace.Counters
	rec     *telemetry.Recording // nil unless the scenario records
}

func runScenario(sc schedScenario, compat bool) schedOutcome {
	sys := MustNewSystem(G1Config(sc.cores))
	sys.compatSched = compat
	var rec *telemetry.Recorder
	if sc.record {
		rec = telemetry.NewRecorder("prop", telemetry.Config{SampleEvery: 200, Breakdown: true})
		sys.attachTelemetry(rec)
	}
	threads := make([]*Thread, len(sc.scripts))
	samples := make([][]sim.Cycles, len(sc.scripts))
	for ti := range sc.scripts {
		script := sc.scripts[ti]
		threads[ti] = sys.Go(fmt.Sprintf("prop-%d", ti), sc.coreOf[ti], sc.remote[ti], func(t *Thread) {
			for _, op := range script {
				switch op.kind {
				case opLoad:
					t.Load(op.addr)
				case opLoadDep:
					t.LoadDep(op.addr)
				case opStore:
					t.Store(op.addr)
				case opNTStore:
					t.NTStore(op.addr)
				case opCLWB:
					t.CLWB(op.addr)
				case opCLFlushOpt:
					t.CLFlushOpt(op.addr)
				case opSFence:
					t.SFence()
				case opMFence:
					t.MFence()
				case opCompute:
					t.Compute(op.n)
				case opLoadParallel:
					t.LoadParallel(op.addr, op.aux)
				case opAVXCopy:
					t.AVXCopy(op.addr, op.aux)
				case opSample:
					samples[ti] = append(samples[ti], t.Now())
				}
			}
		})
	}
	out := schedOutcome{end: sys.Run(), samples: samples}
	for _, t := range threads {
		out.nows = append(out.nows, t.Now())
		out.ops = append(out.ops, t.Ops())
	}
	out.pm = sys.PMCounters()
	out.dram = sys.DRAMCounters()
	if rec != nil {
		out.rec = rec.Snapshot()
	}
	return out
}

func compareOutcomes(t *testing.T, want, got schedOutcome) {
	t.Helper()
	if got.end != want.end {
		t.Errorf("end cycles: lookahead %d, baton reference %d", got.end, want.end)
	}
	for ti := range want.nows {
		if got.nows[ti] != want.nows[ti] {
			t.Errorf("thread %d final time: lookahead %d, reference %d", ti, got.nows[ti], want.nows[ti])
		}
		if got.ops[ti] != want.ops[ti] {
			t.Errorf("thread %d ops: lookahead %d, reference %d", ti, got.ops[ti], want.ops[ti])
		}
		if !reflect.DeepEqual(got.samples[ti], want.samples[ti]) {
			t.Errorf("thread %d clock samples: lookahead %v, reference %v", ti, got.samples[ti], want.samples[ti])
		}
	}
	if got.pm != want.pm {
		t.Errorf("PM counters:\nlookahead %+v\nreference %+v", got.pm, want.pm)
	}
	if got.dram != want.dram {
		t.Errorf("DRAM counters:\nlookahead %+v\nreference %+v", got.dram, want.dram)
	}
	if want.rec == nil {
		return
	}
	if len(want.rec.Events) == 0 || want.rec.Dropped != 0 {
		t.Errorf("reference recording kept %d events and dropped %d; the comparison needs a complete, non-empty stream",
			len(want.rec.Events), want.rec.Dropped)
	}
	if !reflect.DeepEqual(got.rec.Events, want.rec.Events) {
		t.Errorf("recorded events differ: lookahead %d events, reference %d", len(got.rec.Events), len(want.rec.Events))
	}
	if !reflect.DeepEqual(got.rec.Series, want.rec.Series) {
		t.Errorf("recorded gauge series differ")
	}
	if !reflect.DeepEqual(got.rec.Breakdown, want.rec.Breakdown) {
		t.Errorf("recorded cycle-attribution histograms differ")
	}
}

// TestSchedulerMatchesBatonReference replays randomized scenarios under
// the lookahead scheduler and the compatSched per-op baton reference and
// requires identical outcomes. Scenarios vary thread count (1–6), core
// count (1–4, so some placements hyperthread-share), NUMA placement and
// op mix over the full instruction surface; each runs unrecorded and
// recorded, so the telemetry a recorder observes in execution order is
// pinned against the reference too.
func TestSchedulerMatchesBatonReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sc := genScenario(seed)
			for _, record := range []bool{false, true} {
				sc.record = record
				t.Run(fmt.Sprintf("record=%v", record), func(t *testing.T) {
					want := runScenario(sc, true)
					got := runScenario(sc, false)
					compareOutcomes(t, want, got)
				})
			}
		})
	}
}

// TestSchedulerTieBreakByRegistration pins the tie-break rule with
// identical threads: at equal clocks the earlier-registered thread runs
// first, under both schedulers, so outcomes (and in particular the
// shared-WPQ ordering their flushes experience) are identical.
func TestSchedulerTieBreakByRegistration(t *testing.T) {
	script := func() []schedOp {
		var s []schedOp
		for i := 0; i < 200; i++ {
			a := mem.PMBase + mem.Addr((i%16)*mem.CachelineSize)
			s = append(s, schedOp{kind: opStore, addr: a},
				schedOp{kind: opCLWB, addr: a},
				schedOp{kind: opSFence})
		}
		return s
	}
	sc := schedScenario{
		cores:   4,
		coreOf:  []int{0, 1, 2, 3},
		remote:  make([]bool, 4),
		scripts: [][]schedOp{script(), script(), script(), script()},
	}
	want := runScenario(sc, true)
	got := runScenario(sc, false)
	compareOutcomes(t, want, got)
	// Identical scripts must also produce identical per-thread traffic on
	// repeat runs (determinism of the tie-break itself).
	again := runScenario(sc, false)
	compareOutcomes(t, got, again)
}
