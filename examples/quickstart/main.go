// Quickstart: build a simulated G1 Optane testbed, run the paper's
// canonical persistent access pattern (random read, update, persist) and
// print the application-perceived latency plus the on-DIMM traffic the
// paper derives its read/write-amplification metrics from.
package main

import (
	"fmt"

	"optanesim"
)

func main() {
	// One core, one 128 GB-class Optane DIMM, all prefetchers on.
	sys := optanesim.MustNewSystem(optanesim.G1Config(1))

	// A 64 MB persistent region — far beyond the 16 KB on-DIMM buffers
	// and the 27.5 MB LLC, so accesses behave like a large data store.
	const regionBytes = 64 << 20
	heap := optanesim.NewPMHeap(regionBytes)
	region := heap.Alloc(regionBytes, optanesim.XPLineSize)

	const ops = 20000
	var perOp float64
	sys.Go("worker", 0, false, func(t *optanesim.Thread) {
		s := optanesim.NewSession(t, heap)
		// Simple xorshift so the example stays dependency-free.
		state := uint64(0x9E3779B97F4A7C15)
		next := func() uint64 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return state
		}
		start := t.Now()
		for i := 0; i < ops; i++ {
			addr := region + optanesim.Addr(next()%(regionBytes-512))
			addr = addr - addr%optanesim.XPLineSize

			// The pointer-chase-plus-persist pattern of §3.6: read the
			// element header, update one cacheline, persist it.
			v := s.Load64(addr)
			s.Store64(addr+64, v+1)
			s.Persist(addr+64, 8)
		}
		perOp = float64(t.Now()-start) / ops
	})
	total := sys.Run()

	c := sys.PMCounters()
	fmt.Printf("simulated %d read-update-persist ops in %d cycles\n", ops, total)
	fmt.Printf("  latency per op:        %.0f cycles (random media read dominates)\n", perOp)
	fmt.Printf("  demand read/write:     %d / %d bytes\n", c.DemandReadBytes, c.DemandWriteBytes)
	fmt.Printf("  iMC    read/write:     %d / %d bytes\n", c.IMCReadBytes, c.IMCWriteBytes)
	fmt.Printf("  media  read/write:     %d / %d bytes\n", c.MediaReadBytes, c.MediaWriteBytes)
	fmt.Printf("  read amplification:    %.2f\n", c.RA())
	fmt.Printf("  write amplification:   %.2f (64 B persists -> 256 B XPLine RMWs)\n", c.WA())
	fmt.Println("\nfull activity report:")
	fmt.Print(sys.Report())
}
