package telemetry

import (
	"fmt"
	"io"

	"optanesim/internal/sim"
)

// This file is the cycle-attribution half of the telemetry layer: a
// zero-alloc per-op scratchpad (OpAttr) that the machine, imc, optane
// and dram layers charge latency components into while an op executes,
// and a per-tenant histogram store (Breakdown) the finished attributions
// are recorded into.
//
// Attribution has two banks. The op bank holds components on the
// critical path of the currently executing op; at op end the bank is
// reconciled against the op's measured latency (exact conservation: a
// positive residual is charged to CompOther, and components hidden by
// out-of-order overlap are trimmed in a canonical order until the sum
// equals the total) and recorded. The service bank holds work the op
// triggered but did not wait for — WPQ acceptance, write-buffer install
// and evict-RMW cascades, prefetch fills, periodic write-backs — pooled
// per service episode and recorded into separate (non-conserved)
// service histograms.

// Comp enumerates the latency components of the attribution vocabulary.
type Comp uint8

const (
	// CompIssue is front-end issue/occupancy cost charged by the core.
	CompIssue Comp = iota
	// CompCompute is explicit Compute() work.
	CompCompute
	// CompL1Hit..CompL3Hit are cache-hit service (including any wait on
	// an in-flight fill of the line).
	CompL1Hit
	CompL2Hit
	CompL3Hit
	// CompNUMA is the remote-socket access surcharge.
	CompNUMA
	// CompHazard is an iMC read-after-persist hazard stall.
	CompHazard
	// CompIMCQueue is iMC queuing and bus transfer (RPQ + bus cycles).
	CompIMCQueue
	// CompWPQWait is time waiting for a free WPQ slot (queue full).
	CompWPQWait
	// CompWPQAccept is the WPQ acceptance handshake.
	CompWPQAccept
	// CompAcceptPause is a fault-injected WPQ accept-pause stall.
	CompAcceptPause
	// CompFlushPipe is backpressure from the bounded outstanding-flush
	// pipe (MaxOutstandingFlushes).
	CompFlushPipe
	// CompFenceDrain is fence time spent waiting for pending WPQ
	// acceptances beyond the fence's base cost.
	CompFenceDrain
	// CompRBHit is an on-DIMM read-buffer hit (including prefetch-fill
	// wait); CompWCBHit a read served from the write-combining buffer.
	CompRBHit
	CompWCBHit
	// CompAIT is the address-indirection-table miss penalty.
	CompAIT
	// CompMedia is demand media-read service including port wait.
	CompMedia
	// CompRBXfer is the post-media-fill buffer-to-pin transfer slice.
	CompRBXfer
	// CompDRAM is DRAM device service.
	CompDRAM
	// CompWCBInstall is write-combining-buffer install/merge service
	// (service bank only).
	CompWCBInstall
	// CompEvictRMW is the read-modify-write media read a sub-XPLine
	// eviction performs (service bank only).
	CompEvictRMW
	// CompMediaWrite is media-write service (service bank only).
	CompMediaWrite
	// CompPeriodicWB is G1 periodic write-back service (service bank
	// only).
	CompPeriodicWB
	// CompOther is the unattributed residual of an op's latency.
	CompOther

	// NumComps is the component count.
	NumComps
)

var compNames = [NumComps]string{
	CompIssue:       "issue",
	CompCompute:     "compute",
	CompL1Hit:       "l1-hit",
	CompL2Hit:       "l2-hit",
	CompL3Hit:       "l3-hit",
	CompNUMA:        "numa",
	CompHazard:      "hazard-stall",
	CompIMCQueue:    "imc-queue",
	CompWPQWait:     "wpq-wait",
	CompWPQAccept:   "wpq-accept",
	CompAcceptPause: "accept-pause",
	CompFlushPipe:   "flush-pipe",
	CompFenceDrain:  "fence-drain",
	CompRBHit:       "rb-hit",
	CompWCBHit:      "wcb-hit",
	CompAIT:         "ait-miss",
	CompMedia:       "media-read",
	CompRBXfer:      "rb-xfer",
	CompDRAM:        "dram",
	CompWCBInstall:  "wcb-install",
	CompEvictRMW:    "evict-rmw",
	CompMediaWrite:  "media-write",
	CompPeriodicWB:  "periodic-wb",
	CompOther:       "other",
}

// String returns the component's stable wire name.
func (c Comp) String() string {
	if int(c) < len(compNames) {
		return compNames[c]
	}
	return "unknown"
}

// trimOrder is the canonical order in which op-bank components are
// trimmed when out-of-order overlap hides part of the walk (component
// sum exceeds measured op latency): most-hideable memory components
// first, issue cost last. Deterministic by construction.
var trimOrder = [NumComps]Comp{
	CompL1Hit, CompL2Hit, CompL3Hit, CompRBXfer, CompRBHit, CompWCBHit,
	CompAIT, CompMedia, CompDRAM, CompIMCQueue, CompNUMA, CompHazard,
	CompWPQWait, CompWPQAccept, CompAcceptPause, CompWCBInstall,
	CompEvictRMW, CompMediaWrite, CompPeriodicWB, CompFlushPipe,
	CompFenceDrain, CompCompute, CompOther, CompIssue,
}

// OpClass classifies finished ops for the per-class total-latency
// histograms.
type OpClass uint8

const (
	ClassLoad OpClass = iota
	ClassStore
	ClassNTStore
	ClassFlush
	ClassFence
	ClassCompute
	ClassAVXCopy

	// NumClasses is the op-class count.
	NumClasses
)

var classNames = [NumClasses]string{
	ClassLoad:    "load",
	ClassStore:   "store",
	ClassNTStore: "ntstore",
	ClassFlush:   "flush",
	ClassFence:   "fence",
	ClassCompute: "compute",
	ClassAVXCopy: "avxcopy",
}

// String returns the class's stable wire name.
func (c OpClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// CompBank is one attribution scratch bank: cycles per component.
type CompBank [NumComps]sim.Cycles

// OpAttr is the per-op cycle-attribution scratchpad. One OpAttr is
// shared by every component of a machine system (the scheduler
// interleaves simulated threads only at op boundaries, so a single
// scratch is race-free); components hold a nil *OpAttr when attribution
// is off, making the disabled path a single pointer test.
type OpAttr struct {
	bd *Breakdown

	op       CompBank
	svc      CompBank
	svcDepth int
	svcDirty bool

	// tenant is the tenant id of the currently running simulated
	// thread; the machine updates it at baton handoffs.
	tenant int
}

// Add charges n cycles to component c in the active bank. The receiver
// must be non-nil (callers nil-check).
func (a *OpAttr) Add(c Comp, n sim.Cycles) {
	if n <= 0 {
		return
	}
	if a.svcDepth > 0 {
		a.svc[c] += n
		a.svcDirty = true
	} else {
		a.op[c] += n
	}
}

// BeginService opens a service episode: until the matching EndService,
// Add charges the service bank. Episodes nest; nested work pools into
// the outermost episode's sample.
func (a *OpAttr) BeginService() { a.svcDepth++ }

// EndService closes a service episode; closing the outermost episode
// flushes the pooled service bank as one sample per nonzero component.
func (a *OpAttr) EndService() {
	a.svcDepth--
	if a.svcDepth == 0 && a.svcDirty {
		a.flushSvc()
	}
}

// BeginIsolated opens an independent service episode, saving the
// enclosing episode's pooled bank; the matching EndIsolated flushes
// this episode's bank as its own sample and restores the saved state.
// Controller writes use this so a write's service sample has the same
// granularity whether the write is admitted at op level or from within
// another service episode (a prefetch fill cascade spilling a dirty
// victim).
func (a *OpAttr) BeginIsolated() (saved CompBank, savedDirty bool) {
	saved, savedDirty = a.svc, a.svcDirty
	a.svc = CompBank{}
	a.svcDirty = false
	a.svcDepth++
	return saved, savedDirty
}

// EndIsolated closes a BeginIsolated episode: the episode's bank is
// flushed as its own sample (if anything was charged) and the enclosing
// episode's pooled state is restored.
func (a *OpAttr) EndIsolated(saved CompBank, savedDirty bool) {
	a.svcDepth--
	if a.svcDirty {
		a.flushSvc()
	}
	a.svc = saved
	a.svcDirty = savedDirty
}

func (a *OpAttr) flushSvc() {
	a.bd.recordService(a.tenant, &a.svc)
	a.svc = CompBank{}
	a.svcDirty = false
}

// FinishOp reconciles the op bank against the op's measured latency and
// records it under the current tenant: a positive residual is charged
// to CompOther; if out-of-order overlap hid part of the walk (bank sum
// exceeds total), components are trimmed in trimOrder until the sum is
// exact. The bank is then cleared for the next op.
func (a *OpAttr) FinishOp(cl OpClass, total sim.Cycles) {
	if total < 0 {
		total = 0
	}
	var sum sim.Cycles
	for i := range a.op {
		sum += a.op[i]
	}
	if over := sum - total; over > 0 {
		for _, c := range trimOrder {
			v := a.op[c]
			if v == 0 {
				continue
			}
			if v >= over {
				a.op[c] = v - over
				over = 0
				break
			}
			over -= v
			a.op[c] = 0
		}
	} else if sum < total {
		a.op[CompOther] += total - sum
	}
	a.bd.recordOp(a.tenant, cl, total, &a.op)
	a.op = CompBank{}
}

// Tenant interns a tenant label, returning its stable id. The empty
// label is the default tenant, id 0.
func (a *OpAttr) Tenant(name string) int { return a.bd.tenant(name) }

// SetCurrentTenant switches the tenant subsequent recordings are
// attributed to; the machine calls it whenever the running simulated
// thread changes.
func (a *OpAttr) SetCurrentTenant(id int) { a.tenant = id }

// Breakdown is the per-tenant histogram store behind an attribution-
// enabled Recorder. All histograms are preallocated at tenant-intern
// time so recording never allocates.
type Breakdown struct {
	names []string
	ids   map[string]int
	hists []*tenantHists
}

type tenantHists struct {
	op  [NumComps]*Hist
	svc [NumComps]*Hist
	cls [NumClasses]*Hist
}

func newBreakdown() *Breakdown {
	b := &Breakdown{ids: make(map[string]int)}
	b.tenant("")
	return b
}

func (b *Breakdown) tenant(name string) int {
	if id, ok := b.ids[name]; ok {
		return id
	}
	id := len(b.names)
	b.names = append(b.names, name)
	b.ids[name] = id
	th := &tenantHists{}
	for i := range th.op {
		th.op[i] = NewHist()
		th.svc[i] = NewHist()
	}
	for i := range th.cls {
		th.cls[i] = NewHist()
	}
	b.hists = append(b.hists, th)
	return id
}

func (b *Breakdown) recordOp(tenant int, cl OpClass, total sim.Cycles, comps *CompBank) {
	th := b.hists[tenant]
	th.cls[cl].Record(total)
	for c := range comps {
		if comps[c] > 0 {
			th.op[c].Record(comps[c])
		}
	}
}

func (b *Breakdown) recordService(tenant int, comps *CompBank) {
	th := b.hists[tenant]
	for c := range comps {
		if comps[c] > 0 {
			th.svc[c].Record(comps[c])
		}
	}
}

// snapshot freezes the store into an immutable recording, keeping only
// non-empty histograms.
func (b *Breakdown) snapshot() *BreakdownRecording {
	r := &BreakdownRecording{}
	for id, name := range b.names {
		th := b.hists[id]
		tb := TenantBreakdown{Tenant: name}
		for c := Comp(0); c < NumComps; c++ {
			if h := th.op[c]; h.Count() > 0 {
				tb.Op = append(tb.Op, CompHist{Name: c.String(), Hist: h.Clone()})
			}
		}
		for c := Comp(0); c < NumComps; c++ {
			if h := th.svc[c]; h.Count() > 0 {
				tb.Svc = append(tb.Svc, CompHist{Name: c.String(), Hist: h.Clone()})
			}
		}
		for cl := OpClass(0); cl < NumClasses; cl++ {
			if h := th.cls[cl]; h.Count() > 0 {
				tb.Classes = append(tb.Classes, CompHist{Name: cl.String(), Hist: h.Clone()})
			}
		}
		if len(tb.Op)+len(tb.Svc)+len(tb.Classes) > 0 {
			r.Tenants = append(r.Tenants, tb)
		}
	}
	return r
}

// BreakdownRecording is an immutable snapshot of a Breakdown store.
type BreakdownRecording struct {
	Tenants []TenantBreakdown
}

// TenantBreakdown holds one tenant's histograms: per-component op-bank
// and service-bank distributions plus per-op-class totals.
type TenantBreakdown struct {
	Tenant  string
	Op      []CompHist
	Svc     []CompHist
	Classes []CompHist
}

// CompHist pairs a component (or class) name with its histogram.
type CompHist struct {
	Name string
	Hist *Hist
}

// Scope labels for summaries and sinks.
const (
	ScopeOp      = "op"
	ScopeService = "service"
	ScopeClass   = "class"
)

// HistSummary is the flat, JSON-ready digest of one histogram — the
// form written to hist JSONL sinks and pinned by bench goldens.
type HistSummary struct {
	Tenant string `json:"tenant"`
	Scope  string `json:"scope"`
	Name   string `json:"name"`
	Count  uint64 `json:"count"`
	Sum    int64  `json:"sum"`
	Max    int64  `json:"max"`
	P50    int64  `json:"p50"`
	P90    int64  `json:"p90"`
	P99    int64  `json:"p99"`
	P999   int64  `json:"p999"`
}

func summarize(tenant, scope string, ch CompHist) HistSummary {
	h := ch.Hist
	return HistSummary{
		Tenant: tenant, Scope: scope, Name: ch.Name,
		Count: h.Count(), Sum: int64(h.Sum()), Max: int64(h.Max()),
		P50: int64(h.Quantile(0.50)), P90: int64(h.Quantile(0.90)),
		P99: int64(h.Quantile(0.99)), P999: int64(h.Quantile(0.999)),
	}
}

// Summaries flattens the recording into deterministic order: tenants in
// intern order, scopes op → service → class, components in enum order.
func (r *BreakdownRecording) Summaries() []HistSummary {
	if r == nil {
		return nil
	}
	var out []HistSummary
	for _, tb := range r.Tenants {
		for _, ch := range tb.Op {
			out = append(out, summarize(tb.Tenant, ScopeOp, ch))
		}
		for _, ch := range tb.Svc {
			out = append(out, summarize(tb.Tenant, ScopeService, ch))
		}
		for _, ch := range tb.Classes {
			out = append(out, summarize(tb.Tenant, ScopeClass, ch))
		}
	}
	return out
}

// OpSum returns the total op-bank cycles across all tenants and
// components — by conservation, exactly the total measured latency of
// every finished op (which is also the sum of the class histograms).
func (r *BreakdownRecording) OpSum() sim.Cycles {
	var s sim.Cycles
	for _, tb := range r.Tenants {
		for _, ch := range tb.Op {
			s += ch.Hist.Sum()
		}
	}
	return s
}

// ClassSum returns the total of the per-class latency histograms.
func (r *BreakdownRecording) ClassSum() sim.Cycles {
	var s sim.Cycles
	for _, tb := range r.Tenants {
		for _, ch := range tb.Classes {
			s += ch.Hist.Sum()
		}
	}
	return s
}

// WriteTable renders the recording as an aligned per-component latency
// table (cycles): one block per tenant, op-bank components with their
// share of total op cycles, then service-bank components, then per-class
// totals.
func (r *BreakdownRecording) WriteTable(w io.Writer) {
	if r == nil || len(r.Tenants) == 0 {
		fmt.Fprintln(w, "breakdown: no samples recorded")
		return
	}
	for _, tb := range r.Tenants {
		name := tb.Tenant
		if name == "" {
			name = "(default)"
		}
		var total sim.Cycles
		for _, ch := range tb.Classes {
			total += ch.Hist.Sum()
		}
		fmt.Fprintf(w, "tenant %s — %d op cycles\n", name, total)
		fmt.Fprintf(w, "  %-12s %-12s %10s %8s %8s %8s %8s %7s\n",
			"scope", "component", "count", "p50", "p90", "p99", "p999", "share")
		row := func(scope string, ch CompHist) {
			h := ch.Hist
			share := ""
			if scope == ScopeOp && total > 0 {
				share = fmt.Sprintf("%6.2f%%", 100*float64(h.Sum())/float64(total))
			}
			fmt.Fprintf(w, "  %-12s %-12s %10d %8d %8d %8d %8d %7s\n",
				scope, ch.Name, h.Count(),
				h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(0.999), share)
		}
		for _, ch := range tb.Op {
			row(ScopeOp, ch)
		}
		for _, ch := range tb.Svc {
			row(ScopeService, ch)
		}
		for _, ch := range tb.Classes {
			row(ScopeClass, ch)
		}
	}
}

// MergeBreakdowns folds any number of recordings into one, keyed by
// (tenant, scope, name) with histogram merging — the aggregation the
// live /metrics endpoint serves. Tenant order is first-seen; merging is
// deterministic for a deterministic observation order.
func MergeBreakdowns(dst *BreakdownRecording, src *BreakdownRecording) *BreakdownRecording {
	if dst == nil {
		dst = &BreakdownRecording{}
	}
	if src == nil {
		return dst
	}
	for _, stb := range src.Tenants {
		var dtb *TenantBreakdown
		for i := range dst.Tenants {
			if dst.Tenants[i].Tenant == stb.Tenant {
				dtb = &dst.Tenants[i]
				break
			}
		}
		if dtb == nil {
			dst.Tenants = append(dst.Tenants, TenantBreakdown{Tenant: stb.Tenant})
			dtb = &dst.Tenants[len(dst.Tenants)-1]
		}
		mergeHistList(&dtb.Op, stb.Op)
		mergeHistList(&dtb.Svc, stb.Svc)
		mergeHistList(&dtb.Classes, stb.Classes)
	}
	return dst
}

func mergeHistList(dst *[]CompHist, src []CompHist) {
	for _, sch := range src {
		found := false
		for i := range *dst {
			if (*dst)[i].Name == sch.Name {
				(*dst)[i].Hist.Merge(sch.Hist)
				found = true
				break
			}
		}
		if !found {
			*dst = append(*dst, CompHist{Name: sch.Name, Hist: sch.Hist.Clone()})
		}
	}
}
