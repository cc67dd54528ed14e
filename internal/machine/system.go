// Package machine simulates the CPU side of the testbed: cores with
// private L1/L2 caches and prefetchers, a shared L3, simulated threads
// that execute memory-operation streams (loads, stores, non-temporal
// stores, cacheline flushes, fences, and streaming SIMD copies), and a
// deterministic min-time scheduler that makes multi-thread contention
// exact and reproducible.
package machine

import (
	"fmt"
	"sync/atomic"

	"optanesim/internal/cache"
	"optanesim/internal/dram"
	"optanesim/internal/fault"
	"optanesim/internal/imc"
	"optanesim/internal/mem"
	"optanesim/internal/optane"
	"optanesim/internal/prefetch"
	"optanesim/internal/sim"
	"optanesim/internal/telemetry"
	"optanesim/internal/trace"
)

// Config assembles one simulated testbed.
type Config struct {
	// CPU selects the processor profile (G1CPU or G2CPU).
	CPU CPUProfile
	// PM selects the Optane DIMM profile (optane.G1 or optane.G2).
	PM optane.Profile
	// PMDIMMs is the number of interleaved Optane DIMMs (1 or 6 in the
	// paper's experiments).
	PMDIMMs int
	// DRAM selects the DRAM profile; zero value picks the generation's
	// default.
	DRAM dram.Profile
	// IMC configures the memory controllers; zero value uses defaults.
	IMC imc.Config
	// Cores is the number of cores to build (each with private L1/L2).
	Cores int
	// Prefetch selects the CPU prefetcher configuration for all cores.
	Prefetch prefetch.Config
	// Seed drives every stochastic policy in the system.
	Seed uint64
}

// G1Config returns a ready-to-run G1 testbed configuration with n cores
// and one Optane DIMM, all prefetchers on.
func G1Config(cores int) Config {
	return Config{
		CPU: G1CPU(), PM: optane.G1(), PMDIMMs: 1, DRAM: dram.DDR4G1(),
		IMC: imc.DefaultConfig(), Cores: cores, Prefetch: prefetch.All(), Seed: 1,
	}
}

// G2Config returns a ready-to-run G2 testbed configuration.
func G2Config(cores int) Config {
	return Config{
		CPU: G2CPU(), PM: optane.G2(), PMDIMMs: 1, DRAM: dram.DDR4G2(),
		IMC: imc.DefaultConfig(), Cores: cores, Prefetch: prefetch.All(), Seed: 1,
	}
}

// Core is one physical core: private L1d and L2 plus a prefetch engine.
// Two hyperthreads bound to the same core share all three.
type Core struct {
	ID int
	L1 *cache.Cache
	L2 *cache.Cache
	PF *prefetch.Unit
	// live is the number of threads currently bound to this core; when
	// above 1, hyperthread sharing inflates front-end costs.
	live int
}

// System is one simulated testbed instance. It is not safe for
// concurrent use from outside; simulated threads are multiplexed
// internally by the deterministic scheduler.
type System struct {
	cfg   Config
	cores []*Core
	l3    *cache.Cache

	pmDIMMs []*optane.DIMM
	dramDev *dram.DIMM
	pmc     *imc.Controller
	dramc   *imc.Controller

	pmDemand   trace.Counters
	dramDemand trace.Counters

	threads []*Thread
	nextTID int
	running bool
	done    chan struct{}
	// live is the number of registered-but-unfinished threads in the
	// current Run. Once it reaches 1 the remaining thread's grant horizon
	// becomes horizonNever: no baton can change hands, so channel
	// handoffs are skipped entirely.
	live int

	// sched holds the suspended runnable threads, keyed by (now, id);
	// grant horizons are computed against its minimum (see sched.go).
	// compatSched (tests only) forces the classic per-op baton for use as
	// a reference scheduler.
	sched       threadHeap
	compatSched bool

	// Tag interning: attribution tags are small integers indexing flat
	// per-thread cycle arrays; the string API survives only at the edges
	// (SetTag/TagCycles/Tags). ID 0 is the empty tag (no attribution).
	tagIDs   map[string]int
	tagNames []string

	// rec/telProbe, when non-nil, route telemetry from this system (see
	// AttachTelemetry). telProbe is the machine layer's own source;
	// component probes live inside the components.
	rec      *telemetry.Recorder
	telProbe *telemetry.Probe

	// faults, when non-nil, is the injector degrading this system's PM
	// devices (see AttachFaults).
	faults *fault.Injector
}

// NewSystem builds a testbed from cfg.
func NewSystem(cfg Config) (*System, error) { return NewSystemReusing(cfg, nil) }

// NewSystemReusing is NewSystem with donor storage: the donor's cache
// arrays — the bulk of a System's footprint (a G1 L3 alone is 28.8 MB
// of line frames) — are sparsely reset in place (cache.NewReusing) and
// reused instead of allocated, so a sweep that builds one system per
// cell recycles geometry instead of paying the allocator's full
// re-zeroing each time. Every other component is built fresh; the
// resulting system is observably identical to NewSystem's. Ownership
// transfers: the donor must not be used after this call.
func NewSystemReusing(cfg Config, donor *System) (*System, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.PMDIMMs <= 0 {
		cfg.PMDIMMs = 1
	}
	if cfg.DRAM.ReadCycles == 0 {
		if cfg.CPU.Generation == 2 {
			cfg.DRAM = dram.DDR4G2()
		} else {
			cfg.DRAM = dram.DDR4G1()
		}
	}
	if cfg.IMC.WPQDepth == 0 {
		cfg.IMC = imc.DefaultConfig()
	}
	if cfg.CPU.MaxOutstandingFlushes <= 0 {
		cfg.CPU.MaxOutstandingFlushes = 8
	}
	s := &System{
		cfg:      cfg,
		tagIDs:   map[string]int{"": 0},
		tagNames: []string{""},
	}
	var dl3 *cache.Cache
	var dcores []*Core
	if donor != nil && !donor.running {
		dl3 = donor.l3
		dcores = donor.cores
	}
	s.l3 = cache.NewReusing(cfg.CPU.L3, dl3)
	for i := 0; i < cfg.Cores; i++ {
		var d1, d2 *cache.Cache
		if i < len(dcores) {
			d1, d2 = dcores[i].L1, dcores[i].L2
		}
		s.cores = append(s.cores, &Core{
			ID: i,
			L1: cache.NewReusing(cfg.CPU.L1, d1),
			L2: cache.NewReusing(cfg.CPU.L2, d2),
			PF: prefetch.NewUnit(cfg.Prefetch),
		})
	}
	var pmDevs []imc.Device
	for i := 0; i < cfg.PMDIMMs; i++ {
		d, err := optane.NewDIMM(cfg.PM, cfg.Seed+uint64(i)*7919)
		if err != nil {
			return nil, err
		}
		s.pmDIMMs = append(s.pmDIMMs, d)
		pmDevs = append(pmDevs, d)
	}
	s.pmc = imc.NewController(cfg.IMC, pmDevs...)
	s.dramDev = dram.NewDIMM(cfg.DRAM)
	s.dramc = imc.NewController(cfg.IMC, s.dramDev)
	return s, nil
}

// MustNewSystem is NewSystem for known-good configurations.
func MustNewSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// MustNewSystemReusing is NewSystemReusing for known-good
// configurations.
func MustNewSystemReusing(cfg Config, donor *System) *System {
	s, err := NewSystemReusing(cfg, donor)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Core returns core i.
func (s *System) Core(i int) *Core { return s.cores[i] }

// Cores returns the number of cores.
func (s *System) Cores() int { return len(s.cores) }

// PMDIMM returns Optane DIMM i (for introspection in tests).
func (s *System) PMDIMM(i int) *optane.DIMM { return s.pmDIMMs[i] }

// controller routes an address to its memory controller.
func (s *System) controller(addr mem.Addr) *imc.Controller {
	if addr.IsPM() {
		return s.pmc
	}
	return s.dramc
}

// PMCounters returns aggregated PM traffic: the demand bytes observed at
// the CPU plus the iMC/media bytes summed over the Optane DIMMs.
func (s *System) PMCounters() trace.Counters {
	total := s.pmc.Counters()
	total.DemandReadBytes = s.pmDemand.DemandReadBytes
	total.DemandWriteBytes = s.pmDemand.DemandWriteBytes
	return total
}

// DRAMCounters returns aggregated DRAM traffic.
func (s *System) DRAMCounters() trace.Counters {
	total := s.dramc.Counters()
	total.DemandReadBytes = s.dramDemand.DemandReadBytes
	total.DemandWriteBytes = s.dramDemand.DemandWriteBytes
	return total
}

// ResetCounters zeroes all traffic counters (e.g. after a warmup phase)
// without disturbing cache or buffer state.
func (s *System) ResetCounters() {
	s.pmDemand.Reset()
	s.dramDemand.Reset()
	for _, d := range s.pmDIMMs {
		d.Counters().Reset()
	}
	s.dramDev.Counters().Reset()
}

// AttachFaults wires a fault injector (see internal/fault) into the PM
// path: the PM controller gains WPQ accept-pause stalls and every Optane
// DIMM gains thermal derating and poisoned-XPLine media behavior. The
// DRAM path stays healthy. Passing nil detaches.
//
// Call between NewSystem and Run, and — when combining with telemetry —
// before AttachTelemetry, so the fault gauges register.
func (s *System) AttachFaults(inj *fault.Injector) {
	s.faults = inj
	s.pmc.SetFaults(inj)
	for _, d := range s.pmDIMMs {
		d.SetFaults(inj)
	}
}

// Faults returns the attached injector (nil when healthy).
func (s *System) Faults() *fault.Injector { return s.faults }

// AttachTelemetry routes this system's decision-point events and sampled
// gauges into rec: per-level cache fills/evictions, WPQ and hazard
// traffic on the PM controller, on-DIMM buffer and media events, and
// persistence milestones, plus gauges for WPQ depth, buffer occupancy,
// PM read/write amplification, and the L1 way-predictor hit ratio.
//
// Call any time between NewSystem and Run (registered threads are wired
// at Run start). A sweep unit running several systems in sequence
// attaches the same recorder to each; probe identity and gauge series
// continue across systems on one rebased unit timeline. Passing nil
// detaches everything.
func (s *System) AttachTelemetry(rec *telemetry.Recorder) {
	s.rec = rec
	// One wiring list serves attach and detach: with rec nil every probe
	// and the attribution scratchpad are nil. Registration order fixes
	// the source IDs.
	probe := func(string) *telemetry.Probe { return nil }
	var attr *telemetry.OpAttr
	if rec != nil {
		probe = rec.Probe
		attr = rec.Attr()
	}
	s.telProbe = probe("machine")
	s.l3.SetTelemetry(probe("L3"))
	for i, c := range s.cores {
		c.L1.SetTelemetry(probe(fmt.Sprintf("L1(core%d)", i)))
		c.L2.SetTelemetry(probe(fmt.Sprintf("L2(core%d)", i)))
	}
	s.pmc.SetTelemetry(probe("imc-pm"))
	s.dramc.SetTelemetry(probe("imc-dram"))
	for i, d := range s.pmDIMMs {
		d.SetTelemetry(probe(fmt.Sprintf("dimm%d", i)))
	}
	// Cycle attribution: the recorder's scratchpad (nil when breakdown
	// is off) fans out to every component that charges latency into it.
	s.pmc.SetAttr(attr)
	s.dramc.SetAttr(attr)
	for _, d := range s.pmDIMMs {
		d.SetAttr(attr)
	}
	s.dramDev.SetAttr(attr)
	if rec == nil {
		return
	}

	rec.RegisterGauge("wpq_occupancy", func(now sim.Cycles) float64 {
		return float64(s.pmc.WPQOccupancy(now))
	})
	rec.RegisterGauge("read_buf_lines", func(now sim.Cycles) float64 {
		n := 0
		for _, d := range s.pmDIMMs {
			n += d.ReadBufferLen()
		}
		return float64(n)
	})
	rec.RegisterGauge("write_buf_lines", func(now sim.Cycles) float64 {
		n := 0
		for _, d := range s.pmDIMMs {
			n += d.WriteBufferLen()
		}
		return float64(n)
	})
	rec.RegisterGauge("pm_ra", func(now sim.Cycles) float64 {
		return s.PMCounters().RA()
	})
	rec.RegisterGauge("pm_wa", func(now sim.Cycles) float64 {
		return s.PMCounters().WA()
	})
	rec.RegisterGauge("l1_pred_hit_ratio", func(now sim.Cycles) float64 {
		var hits, misses uint64
		for _, c := range s.cores {
			h, m := c.L1.PredStats()
			hits += h
			misses += m
		}
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	})
	if inj := s.faults; inj != nil {
		rec.RegisterGauge("pm_throttled", func(now sim.Cycles) float64 {
			if inj.ThrottledAt(now) {
				return 1
			}
			return 0
		})
		rec.RegisterGauge("poison_hits", func(now sim.Cycles) float64 {
			st := inj.Stats()
			return float64(st.PoisonHits + st.MediaPoisonReads)
		})
	}
}

// globalOps/globalCycles accumulate simulated progress across every
// System.Run in the process, feeding the live telemetry endpoint.
var globalOps, globalCycles atomic.Uint64

// GlobalStats reports process-wide simulated progress: operations
// executed and cycles elapsed, summed over every completed Run. It is the
// canonical telemetry.StatsFunc.
func GlobalStats() (ops, cycles uint64) {
	return globalOps.Load(), globalCycles.Load()
}

// noteRunEnd publishes a completed run's progress: the process-wide
// atomics always, and the recorder's run boundary when telemetry is
// attached. Called with s.threads still populated.
func (s *System) noteRunEnd(end sim.Cycles) {
	var ops uint64
	for _, t := range s.threads {
		ops += t.ops
	}
	globalOps.Add(ops)
	globalCycles.Add(uint64(end))
	if s.rec != nil {
		s.rec.NoteRunEnd(end)
	}
}

// Go registers a simulated thread bound to core coreID. remote marks the
// thread as running on the other socket from the memory (NUMA). The
// function body runs when Run is called. It returns the thread for
// post-run inspection.
func (s *System) Go(name string, coreID int, remote bool, fn func(*Thread)) *Thread {
	if s.running {
		panic("machine: Go called while Run in progress")
	}
	if coreID < 0 || coreID >= len(s.cores) {
		panic(fmt.Sprintf("machine: core %d out of range", coreID))
	}
	core := s.cores[coreID]
	t := &Thread{
		sys:        s,
		id:         s.nextTID,
		name:       name,
		core:       core,
		remote:     remote,
		fn:         fn,
		levels:     [3]*cache.Cache{core.L1, core.L2, s.l3},
		cpuProf:    &s.cfg.CPU,
		l1Hit:      core.L1.HitCycles(),
		pmDemand:   &s.pmDemand,
		dramDemand: &s.dramDemand,
		pfFloor:    s.cfg.PM.SeqReadFloorCycles,
	}
	s.nextTID++
	s.threads = append(s.threads, t)
	return t
}

// internTag returns the stable small-integer ID of an attribution tag,
// assigning the next free one on first sight.
func (s *System) internTag(name string) int {
	if id, ok := s.tagIDs[name]; ok {
		return id
	}
	id := len(s.tagNames)
	s.tagIDs[name] = id
	s.tagNames = append(s.tagNames, name)
	return id
}

// Run executes all registered threads to completion under the
// deterministic lookahead-window scheduler (sched.go), then clears the
// thread list. It returns the final simulated time (the max over thread
// finish times).
//
// A single registered thread — the shape of every single-thread sweep —
// bypasses the scheduler entirely: the body runs inline on the calling
// goroutine with no channels or goroutine handoffs under a
// never-preempt horizon, so every per-op gate reduces to one counter
// check. With two or more threads the coroutine baton passes only when
// a thread's clock crosses its grant horizon, preserving the exact
// min-time contention order of the classic per-op scheduler.
func (s *System) Run() sim.Cycles {
	if len(s.threads) == 0 {
		return 0
	}
	s.running = true
	for _, c := range s.cores {
		c.live = 0
	}
	for _, t := range s.threads {
		t.core.live++
	}
	for _, t := range s.threads {
		t.htShared = t.core.live > 1
		t.rec = s.rec
		t.tel = s.telProbe
		t.attr = nil
		if s.rec != nil {
			if t.attr = s.rec.Attr(); t.attr != nil {
				t.tenant = t.attr.Tenant(t.tenantName)
			}
		}
	}
	s.live = len(s.threads)

	if len(s.threads) == 1 {
		t := s.threads[0]
		t.horizon = horizonNever
		t.attrResumed()
		t.fn(t)
		s.live = 0
		end := t.now
		s.noteRunEnd(end)
		s.threads = s.threads[:0]
		s.running = false
		return end
	}

	s.sched.reset()
	s.done = make(chan struct{})
	for _, t := range s.threads {
		t.resume = make(chan struct{})
		s.sched.push(t)
	}
	for _, t := range s.threads {
		go t.main()
	}
	first := s.sched.pop()
	s.grant(first)
	first.resume <- struct{}{}
	<-s.done

	var end sim.Cycles
	for _, t := range s.threads {
		if t.now > end {
			end = t.now
		}
	}
	s.noteRunEnd(end)
	s.threads = s.threads[:0]
	s.running = false
	return end
}

// CyclesToSeconds converts a simulated cycle count to seconds using the
// CPU profile's frequency.
func (s *System) CyclesToSeconds(c sim.Cycles) float64 {
	return float64(c) / (s.cfg.CPU.FrequencyGHz * 1e9)
}
