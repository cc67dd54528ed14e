// Fault-matrix experiment: runtime fault injection over the stack.
// Where crashmatrix asks "which post-power-cut states does each index
// survive?", faultmatrix asks the runtime half: what happens while the
// device degrades under a live program. The matrix crosses the three
// fault classes of internal/fault with representative workloads:
//
//   - poison/<index>: seeded media UEs installed over a built index's
//     heap; every key is then read through the hardened checked path —
//     first under the report policy (hard UEs must surface as typed
//     errors, transients must clear on retry), then under the repair
//     policy (every key must read correctly after scrubbing).
//   - control/unhardened-<index>: the negative control. The same
//     poisoned heap read through the PLAIN path must be flagged by the
//     injector as silent absorption; if the unchecked reads are not
//     detected, the unit panics and the matrix fails.
//   - thermal/*, stall/*, media/*: timed workloads run twice on
//     identical systems — healthy and degraded — asserting the fault
//     model actually costs simulated time and recording both cycle
//     counts.
//
// Every unit is seeded (Options.Seed reproduces a sampled run from the
// CLI) and shares nothing, so the -quick JSON is golden and
// byte-identical across worker counts.

package bench

import (
	"fmt"

	"optanesim/internal/btree"
	"optanesim/internal/cceh"
	"optanesim/internal/fault"
	"optanesim/internal/kvstore"
	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/pmem"
	"optanesim/internal/radix"
	"optanesim/internal/sim"
)

// FaultMatrixRecord is the structured result of one matrix cell.
type FaultMatrixRecord struct {
	// Class is the fault class: "poison", "control", "thermal",
	// "stall", or "media".
	Class string `json:"class"`
	// Workload names the driven workload within the class.
	Workload string `json:"workload"`
	// Seed is the unit's injection seed (Options.Seed+i when overridden
	// from the CLI), recorded so any run can be reproduced.
	Seed uint64 `json:"seed"`
	// Ops is the number of driven operations (keys read, or timed ops).
	Ops int `json:"ops"`

	// Poison accounting (poison/control cells).
	Injected   uint64 `json:"injected,omitempty"`
	Hits       uint64 `json:"hits,omitempty"`
	Reported   int    `json:"reported,omitempty"`
	Repaired   uint64 `json:"repaired,omitempty"`
	Unreported uint64 `json:"unreported,omitempty"`

	// Timing-plane accounting (thermal/stall/media cells): the same
	// workload's end time on a healthy and on a degraded system.
	BaseCycles   sim.Cycles `json:"base_cycles,omitempty"`
	FaultCycles  sim.Cycles `json:"fault_cycles,omitempty"`
	Stalls       uint64     `json:"stalls,omitempty"`
	ThrottledOps uint64     `json:"throttled_ops,omitempty"`
}

// faultVal is the deterministic value stored under key k in the poison
// units, so every read can be verified.
func faultVal(k uint64) uint64 { return k*31 + 7 }

// faultIndex is one index structure's plain point read.
type faultIndex func(k uint64) (uint64, bool)

// checkedGet is the hardened read path: get(k) run under the session's
// fault-checking scope with pol's bounded retry/repair semantics. A
// clean or recovered read returns get's (value, ok); a read that still
// touches an unrecoverable poisoned line returns the typed error
// (mem.IsPoison) instead of silently corrupt data; v and ok then mean
// nothing.
func checkedGet(s *pmem.Session, get faultIndex, k uint64, pol pmem.RepairPolicy) (v uint64, ok bool, err error) {
	err = s.CheckedRead(pol, func() { v, ok = get(k) })
	return v, ok, err
}

// installPoison arms k sampled cachelines over the heap's used region:
// every third line a transient UE (clears after one failed read), the
// rest hard UEs (fail until rewritten).
func installPoison(inj *fault.Injector, h *pmem.Heap, seed uint64, k int) {
	r := sim.NewRand(seed)
	lines := int(h.Used() / mem.CachelineSize)
	if k > lines {
		k = lines
	}
	for i := 0; i < k; i++ {
		addr := h.Base() + mem.Addr(r.Intn(lines)*mem.CachelineSize)
		if i%3 == 0 {
			inj.InstallTransient(addr, 1)
		} else {
			inj.InstallPoison(addr)
		}
	}
}

// runPoisonUnit builds one index with n keys, poisons sampled lines,
// and drives the hardened read path: a report-policy pass (hard UEs
// surface as typed errors, clean keys read correctly) followed by a
// repair-policy pass (every key reads correctly after scrubbing). Any
// silently absorbed read, wrong value, or non-poison error panics the
// unit.
func runPoisonUnit(workload string, seed uint64, n, nPoison int,
	build func(s *pmem.Session, h *pmem.Heap) faultIndex) UnitResult {

	h := pmem.NewPMHeap(1 << 23)
	s := pmem.NewFreeSession(h)
	get := build(s, h)

	inj := fault.New(fault.Config{Seed: seed})
	s.SetFaults(inj)
	installPoison(inj, h, seed, nPoison)
	injected := inj.Stats().PoisonArmed

	// Pass A — detect and report: a hard UE on the key's read path must
	// surface as a typed poison error, never as corrupt data.
	reported := 0
	for k := uint64(1); k <= uint64(n); k++ {
		v, ok, err := checkedGet(s, get, k, pmem.ReportPolicy())
		if err != nil {
			if !mem.IsPoison(err) {
				panic(fmt.Sprintf("faultmatrix poison/%s (seed %d): key %d: untyped error %v",
					workload, seed, k, err))
			}
			reported++
			continue
		}
		if !ok || v != faultVal(k) {
			panic(fmt.Sprintf("faultmatrix poison/%s (seed %d): key %d = (%d,%v), want (%d,true)",
				workload, seed, k, v, ok, faultVal(k)))
		}
	}
	// Pass B — detect and repair: scrubbing must recover every key.
	for k := uint64(1); k <= uint64(n); k++ {
		v, ok, err := checkedGet(s, get, k, pmem.RepairingPolicy())
		if err != nil {
			panic(fmt.Sprintf("faultmatrix poison/%s (seed %d): key %d unrecoverable: %v",
				workload, seed, k, err))
		}
		if !ok || v != faultVal(k) {
			panic(fmt.Sprintf("faultmatrix poison/%s (seed %d): key %d = (%d,%v) after repair, want (%d,true)",
				workload, seed, k, v, ok, faultVal(k)))
		}
	}

	st := inj.Stats()
	if st.UnreportedHits != 0 {
		panic(fmt.Sprintf("faultmatrix poison/%s (seed %d): hardened path silently absorbed %d poisoned reads",
			workload, seed, st.UnreportedHits))
	}
	if reported == 0 || st.Scrubbed == 0 {
		panic(fmt.Sprintf("faultmatrix poison/%s (seed %d): injection ineffective (%d reported, %d scrubbed of %d injected)",
			workload, seed, reported, st.Scrubbed, injected))
	}
	rec := FaultMatrixRecord{
		Class: "poison", Workload: workload, Seed: seed, Ops: n,
		Injected: injected, Hits: st.PoisonHits, Reported: reported,
		Repaired: st.Scrubbed, Unreported: st.UnreportedHits,
	}
	return UnitResult{Data: rec, Text: fmt.Sprintf(
		"faultmatrix poison   %-10s %5d keys  %3d injected  %4d hits  %3d reported  %3d repaired  0 unreported  (seed %d)",
		workload, n, rec.Injected, rec.Hits, rec.Reported, rec.Repaired, seed)}
}

// timedPair runs the same single-thread workload on a healthy system
// and on one degraded by cfg, returning both end times and the
// degraded run's injector. The cell owns its injectors, so the meter's
// run-wide one is dropped; faults attach before the meter so telemetry
// (when on) registers the fault gauges.
func timedPair(m *Meter, workload func(*machine.Thread), cfg fault.Config) (base, faulted sim.Cycles, inj *fault.Injector) {
	m.Inj = nil
	sysB := m.System(machine.G1Config(1))
	sysB.Go("healthy", 0, false, workload)
	base = m.Run(sysB)

	sysF := m.System(machine.G1Config(1))
	inj = fault.New(cfg)
	sysF.AttachFaults(inj)
	sysF.Go("degraded", 0, false, workload)
	faulted = m.Run(sysF)
	return base, faulted, inj
}

// pctSlower renders the degradation for the text line.
func pctSlower(base, faulted sim.Cycles) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * float64(faulted-base) / float64(base)
}

func faultmatrixUnits(o Options) []Unit {
	nKeys := o.scale(3000, 600)
	nPoison := o.scale(64, 24)
	nOps := o.scale(20000, 4000)
	nXPL := o.scale(4096, 1024)
	seeds := [9]uint64{}
	for i := range seeds {
		seeds[i] = o.matrixSeed(uint64(21+i), i)
	}
	const window = 8 << 20 // cold-read aperture, larger than any cache

	units := []Unit{
		{Experiment: "faultmatrix", Name: "poison/btree", body: func(*Meter) UnitResult {
			return runPoisonUnit("btree", seeds[0], nKeys, nPoison, func(s *pmem.Session, h *pmem.Heap) faultIndex {
				tr := btree.New(s, h, btree.RedoLog)
				w := tr.NewWriter(s, nil)
				for k := uint64(1); k <= uint64(nKeys); k++ {
					if err := tr.Insert(w, k, faultVal(k)); err != nil {
						panic(err)
					}
				}
				return func(k uint64) (uint64, bool) { return tr.Get(s, k) }
			})
		}},
		{Experiment: "faultmatrix", Name: "poison/cceh", body: func(*Meter) UnitResult {
			return runPoisonUnit("cceh", seeds[1], nKeys, nPoison, func(s *pmem.Session, h *pmem.Heap) faultIndex {
				tb := cceh.New(s, h, 0)
				for k := uint64(1); k <= uint64(nKeys); k++ {
					if err := tb.Insert(s, k, faultVal(k)); err != nil {
						panic(err)
					}
				}
				return func(k uint64) (uint64, bool) { return tb.Lookup(s, k) }
			})
		}},
		{Experiment: "faultmatrix", Name: "poison/radix", body: func(*Meter) UnitResult {
			return runPoisonUnit("radix", seeds[2], nKeys, nPoison, func(s *pmem.Session, h *pmem.Heap) faultIndex {
				tr := radix.New(s, h)
				for k := uint64(1); k <= uint64(nKeys); k++ {
					if err := tr.Insert(s, k, faultVal(k)); err != nil {
						panic(err)
					}
				}
				return func(k uint64) (uint64, bool) { return tr.Get(s, k) }
			})
		}},
		{Experiment: "faultmatrix", Name: "poison/kvstore", body: func(*Meter) UnitResult {
			return runPoisonUnit("kvstore", seeds[3], nKeys, nPoison, func(s *pmem.Session, h *pmem.Heap) faultIndex {
				st := kvstore.New(s, h, kvstore.Batched, 1<<18)
				for k := uint64(1); k <= uint64(nKeys); k++ {
					if err := st.Put(s, k, faultVal(k)); err != nil {
						panic(err)
					}
				}
				return func(k uint64) (uint64, bool) { return st.Get(s, k) }
			})
		}},

		// The negative control: the same poisoned-heap shape read through
		// the UNHARDENED path. The injector must flag every one of those
		// reads as silent absorption — if it does not, poison slipped
		// through the stack undetected and the matrix fails.
		{Experiment: "faultmatrix", Name: "control/unhardened-btree", body: func(*Meter) UnitResult {
			seed := seeds[4]
			h := pmem.NewPMHeap(1 << 23)
			s := pmem.NewFreeSession(h)
			tr := btree.New(s, h, btree.RedoLog)
			w := tr.NewWriter(s, nil)
			for k := uint64(1); k <= uint64(nKeys); k++ {
				if err := tr.Insert(w, k, faultVal(k)); err != nil {
					panic(err)
				}
			}
			inj := fault.New(fault.Config{Seed: seed})
			s.SetFaults(inj)
			installPoison(inj, h, seed, nPoison)
			get := func(k uint64) (uint64, bool) { return tr.Get(s, k) }

			// Unhardened pass: plain Get never sees an error even though
			// its loads cross poisoned lines.
			for k := uint64(1); k <= uint64(nKeys); k++ {
				if v, ok := get(k); !ok || v != faultVal(k) {
					panic(fmt.Sprintf("faultmatrix control (seed %d): data plane corrupted at key %d", seed, k))
				}
			}
			absorbed := inj.Stats().UnreportedHits
			if absorbed == 0 {
				panic(fmt.Sprintf(
					"faultmatrix control (seed %d): negative control failed — poisoned reads were silently absorbed without detection",
					seed))
			}
			// The hardened path over the same heap repairs everything.
			repairedPass := 0
			for k := uint64(1); k <= uint64(nKeys); k++ {
				v, ok, err := checkedGet(s, get, k, pmem.RepairingPolicy())
				if err != nil || !ok || v != faultVal(k) {
					panic(fmt.Sprintf("faultmatrix control (seed %d): hardened repair failed at key %d: %v", seed, k, err))
				}
				repairedPass++
			}
			st := inj.Stats()
			rec := FaultMatrixRecord{
				Class: "control", Workload: "unhardened-btree", Seed: seed, Ops: nKeys,
				Injected: st.PoisonArmed, Hits: st.PoisonHits,
				Repaired: st.Scrubbed, Unreported: absorbed,
			}
			return UnitResult{Data: rec, Text: fmt.Sprintf(
				"faultmatrix control  %-10s %5d keys  %3d injected  %4d unreported hits detected  %3d repaired  (seed %d)",
				"btree", nKeys, rec.Injected, rec.Unreported, rec.Repaired, seed)}
		}},

		o.unit("faultmatrix", "thermal/seq-write", func(m *Meter) UnitResult {
			seed := seeds[5]
			// One line per XPLine: partial entries take the eviction RMW
			// path, so derated media ports backpressure the store stream
			// (full XPLines would drain through the fire-and-forget
			// periodic write-back and hide the throttling).
			wl := func(t *machine.Thread) {
				for i := 0; i < nOps; i++ {
					t.Apply(mem.OpNTStore, mem.PMBase+mem.Addr(i*mem.XPLineSize%window))
					if i%16 == 15 {
						t.Apply(mem.OpSFence, 0)
					}
				}
				t.Apply(mem.OpSFence, 0)
			}
			base, faulted, inj := timedPair(m, wl, fault.Config{
				Seed:    seed,
				Thermal: fault.ThermalProfile{Period: 400000, Window: 200000, DeratePct: 150},
			})
			st := inj.Stats()
			if faulted <= base || st.ThrottledOps == 0 {
				panic(fmt.Sprintf("faultmatrix thermal/seq-write (seed %d): no derating (base %d, faulted %d, %d throttled)",
					seed, base, faulted, st.ThrottledOps))
			}
			rec := FaultMatrixRecord{
				Class: "thermal", Workload: "seq-write", Seed: seed, Ops: nOps,
				BaseCycles: base, FaultCycles: faulted, ThrottledOps: st.ThrottledOps,
			}
			return UnitResult{Data: rec, Text: fmt.Sprintf(
				"faultmatrix thermal  %-10s %5d ops   %9dc healthy  %9dc throttled  (+%.1f%%, %d throttled ops, seed %d)",
				"seq-write", nOps, base, faulted, pctSlower(base, faulted), st.ThrottledOps, seed)}
		}),
		o.unit("faultmatrix", "thermal/rand-read", func(m *Meter) UnitResult {
			seed := seeds[6]
			r := sim.NewRand(seed)
			addrs := make([]mem.Addr, nOps)
			for i := range addrs {
				addrs[i] = mem.PMBase + mem.Addr(r.Intn(window/mem.CachelineSize)*mem.CachelineSize)
			}
			wl := func(t *machine.Thread) {
				for _, a := range addrs {
					t.Apply(mem.OpLoad, a)
				}
			}
			base, faulted, inj := timedPair(m, wl, fault.Config{
				Seed:    seed,
				Thermal: fault.ThermalProfile{Period: 400000, Window: 200000, DeratePct: 150},
			})
			st := inj.Stats()
			if faulted <= base || st.ThrottledOps == 0 {
				panic(fmt.Sprintf("faultmatrix thermal/rand-read (seed %d): no derating (base %d, faulted %d, %d throttled)",
					seed, base, faulted, st.ThrottledOps))
			}
			rec := FaultMatrixRecord{
				Class: "thermal", Workload: "rand-read", Seed: seed, Ops: nOps,
				BaseCycles: base, FaultCycles: faulted, ThrottledOps: st.ThrottledOps,
			}
			return UnitResult{Data: rec, Text: fmt.Sprintf(
				"faultmatrix thermal  %-10s %5d ops   %9dc healthy  %9dc throttled  (+%.1f%%, %d throttled ops, seed %d)",
				"rand-read", nOps, base, faulted, pctSlower(base, faulted), st.ThrottledOps, seed)}
		}),
		o.unit("faultmatrix", "stall/nt-store", func(m *Meter) UnitResult {
			seed := seeds[7]
			wl := func(t *machine.Thread) {
				for i := 0; i < nOps; i++ {
					t.Apply(mem.OpNTStore, mem.PMBase+mem.Addr(i*mem.CachelineSize%window))
					if i%8 == 7 {
						t.Apply(mem.OpSFence, 0)
					}
				}
				t.Apply(mem.OpSFence, 0)
			}
			base, faulted, inj := timedPair(m, wl, fault.Config{
				Seed:  seed,
				Stall: fault.StallProfile{Period: 200000, Window: 40000},
			})
			st := inj.Stats()
			if faulted <= base || st.Stalls == 0 {
				panic(fmt.Sprintf("faultmatrix stall/nt-store (seed %d): no backpressure (base %d, faulted %d, %d stalls)",
					seed, base, faulted, st.Stalls))
			}
			rec := FaultMatrixRecord{
				Class: "stall", Workload: "nt-store", Seed: seed, Ops: nOps,
				BaseCycles: base, FaultCycles: faulted, Stalls: st.Stalls,
			}
			return UnitResult{Data: rec, Text: fmt.Sprintf(
				"faultmatrix stall    %-10s %5d ops   %9dc healthy  %9dc stalled    (+%.1f%%, %d stalled writes, seed %d)",
				"nt-store", nOps, base, faulted, pctSlower(base, faulted), st.Stalls, seed)}
		}),
		o.unit("faultmatrix", "media/wear-rw", func(m *Meter) UnitResult {
			seed := seeds[8]
			wl := func(t *machine.Thread) {
				// Write sweep: fill whole XPLines so WCB evictions drive
				// media writes (each a chance to arm a wear-induced UE)...
				for i := 0; i < nXPL; i++ {
					base := mem.PMBase + mem.Addr(i*mem.XPLineSize)
					for l := 0; l < mem.LinesPerXPLine; l++ {
						t.Apply(mem.OpNTStore, base+mem.Addr(l*mem.CachelineSize))
					}
					if i%8 == 7 {
						t.Apply(mem.OpSFence, 0)
					}
				}
				t.Apply(mem.OpSFence, 0)
				// ...then a read sweep: media reads of armed XPLines pay
				// the UE detect penalty.
				for i := 0; i < nXPL; i++ {
					t.Apply(mem.OpLoad, mem.PMBase+mem.Addr(i*mem.XPLineSize))
				}
			}
			base, faulted, inj := timedPair(m, wl, fault.Config{
				Seed:   seed,
				Poison: fault.PoisonProfile{WriteOneIn: 16, ReadExtraCycles: 500},
			})
			st := inj.Stats()
			if faulted <= base || st.PoisonArmed == 0 || st.MediaPoisonReads == 0 {
				panic(fmt.Sprintf("faultmatrix media/wear-rw (seed %d): no wear UEs (base %d, faulted %d, %d armed, %d poison reads)",
					seed, base, faulted, st.PoisonArmed, st.MediaPoisonReads))
			}
			rec := FaultMatrixRecord{
				Class: "media", Workload: "wear-rw", Seed: seed, Ops: nXPL * (mem.LinesPerXPLine + 1),
				Injected: st.PoisonArmed, Hits: st.MediaPoisonReads,
				BaseCycles: base, FaultCycles: faulted,
			}
			return UnitResult{Data: rec, Text: fmt.Sprintf(
				"faultmatrix media    %-10s %5d ops   %9dc healthy  %9dc degraded   (+%.1f%%, %d UEs armed, %d poisoned media reads, seed %d)",
				"wear-rw", rec.Ops, base, faulted, pctSlower(base, faulted), st.PoisonArmed, st.MediaPoisonReads, seed)}
		}),
	}
	return units
}
