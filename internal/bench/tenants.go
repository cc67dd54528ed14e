package bench

import (
	"fmt"
	"strings"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/telemetry"
)

// tenants runs the per-tenant cycle-attribution demonstration on G1:
// two threads on separate cores share one PM module, one tenant
// read-heavy (loads with periodic flushes), the other persist-heavy
// (store + clwb + sfence chains), each making rounds passes over its own
// lines-cacheline set. Each thread labels itself with SetTenant, so the
// attribution layer splits every latency histogram per tenant — the
// noisy-neighbor view of §3's buffer contention.
func tenants(m *Meter, lines, rounds int) {
	sys := m.System(G1.Config(2))
	span := lines * mem.CachelineSize

	sys.Go("reader", 0, false, func(t *machine.Thread) {
		t.SetTenant("tenantA")
		base := mem.PMBase
		for r := 0; r < rounds; r++ {
			for i := 0; i < lines; i++ {
				addr := base + mem.Addr(i*mem.CachelineSize)
				t.Load(addr)
				if i%8 == 7 {
					t.CLFlushOpt(addr)
				}
			}
		}
	})
	sys.Go("writer", 1, false, func(t *machine.Thread) {
		t.SetTenant("tenantB")
		base := mem.PMBase + mem.Addr(span)
		for r := 0; r < rounds; r++ {
			for i := 0; i < lines; i++ {
				addr := base + mem.Addr(i*mem.CachelineSize)
				t.Store(addr)
				t.CLWB(addr)
				if i%4 == 3 {
					t.SFence()
				}
			}
		}
	})
	m.Run(sys)
}

// tenantsUnits returns the experiment's single unit. Unlike the other
// experiments it carries no options and records into its own
// breakdown-enabled recorder (ignoring Options.Telemetry and
// Options.Fault): its Data IS the attribution summaries, so the records
// must not depend on which telemetry or fault flags the CLI run happened
// to pass.
func tenantsUnits(o Options) []Unit {
	return []Unit{{Experiment: "tenants", Name: "G1", body: func(m *Meter) UnitResult {
		m.Rec = telemetry.NewRecorder("tenants/G1", telemetry.Config{Breakdown: true})
		tenants(m, o.scale(256, 96), o.scale(12, 4))
		bd := m.Rec.Snapshot().Breakdown
		return UnitResult{Data: bd.Summaries(), Text: FormatTenants(bd)}
	}}}
}

// FormatTenants renders the per-tenant breakdown tables.
func FormatTenants(bd *telemetry.BreakdownRecording) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Tenants: per-tenant cycle attribution (reader=tenantA, persister=tenantB)")
	bd.WriteTable(&b)
	return b.String()
}
