// Package xpline implements the §4.3 case study: XPLine-aligned
// workloads whose 256 B blocks are accessed either directly (ordinary
// loads, engaging the CPU prefetchers and paying their cross-block
// misprefetch penalty on DCPMM) or via the paper's redirection
// optimization (Algorithm 2): a streaming SIMD copy of the whole XPLine
// into a per-thread DRAM staging buffer, from which the CPU then reads —
// sidestepping the prefetchers entirely at the cost of an extra copy.
package xpline

import (
	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/telemetry"
)

// Direct reads all four cachelines of the block with ordinary loads and
// then flushes them, so the next visit reaches the DIMM again (the §3.4
// benchmark's access pattern; prefetchers fire normally).
func Direct(t *machine.Thread, block mem.Addr) {
	base := block.XPLine()
	if p := t.Telemetry(); p != nil {
		p.Emit(t.Now(), telemetry.KindXPDirect, base, 0)
	}
	for c := 0; c < mem.LinesPerXPLine; c++ {
		t.Load(base + mem.Addr(c*mem.CachelineSize))
	}
	for c := 0; c < mem.LinesPerXPLine; c++ {
		t.CLFlushOpt(base + mem.Addr(c*mem.CachelineSize))
	}
}

// Redirected copies the block into the one-XPLine DRAM staging buffer
// at staging with streaming SIMD loads (no prefetcher involvement) and
// performs the reads against the staging copy, which stays
// cache-resident. Each thread stages into its own XPLine-aligned
// buffer.
func Redirected(t *machine.Thread, block, staging mem.Addr) {
	if p := t.Telemetry(); p != nil {
		p.Emit(t.Now(), telemetry.KindXPRedirected, block.XPLine(), 0)
	}
	t.AVXCopy(block.XPLine(), staging)
	for c := 0; c < mem.LinesPerXPLine; c++ {
		t.Load(staging + mem.Addr(c*mem.CachelineSize))
	}
}
