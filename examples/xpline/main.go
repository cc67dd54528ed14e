// Xpline: the §4.3 case study as an application — an XPLine-aligned
// workload (random 256 B blocks, e.g. a 256 B-record store) accessed
// directly versus through the AVX redirection optimization, sweeping the
// thread count to find the crossover where saved misprefetch bandwidth
// beats the extra copy.
package main

import (
	"fmt"

	"optanesim"
)

const (
	// The blocks form a PM region of about 128 MB, well beyond the
	// caches, starting at the PM base.
	nBlocks         = (128<<20 - 8192) / optanesim.XPLineSize
	blocksPerThread = 3000
)

func run(threads int, optimized bool) (cyclesPerBlock, gbs float64) {
	sys := optanesim.MustNewSystem(optanesim.G1Config(threads))

	var busy optanesim.Cycles
	var end optanesim.Cycles
	for w := 0; w < threads; w++ {
		seed := uint64(101 + w)
		// Each thread stages into its own XPLine of DRAM.
		staging := optanesim.DRAMBase + optanesim.Addr(w*optanesim.XPLineSize)
		sys.Go(fmt.Sprintf("t%d", w), w, false, func(t *optanesim.Thread) {
			state := seed
			next := func() uint64 {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				return state
			}
			start := t.Now()
			for i := 0; i < blocksPerThread; i++ {
				block := optanesim.PMBase + optanesim.Addr(next()%nBlocks)*optanesim.XPLineSize
				if optimized {
					optanesim.RedirectedBlockRead(t, block, staging)
				} else {
					optanesim.DirectBlockRead(t, block)
				}
			}
			busy += t.Now() - start
			if t.Now() > end {
				end = t.Now()
			}
		})
	}
	sys.Run()
	blocks := threads * blocksPerThread
	secs := sys.CyclesToSeconds(end)
	return float64(busy) / float64(blocks),
		float64(blocks) * optanesim.XPLineSize / secs / 1e9
}

func main() {
	fmt.Println("threads  direct lat   redirected lat   direct GB/s  redirected GB/s")
	for _, th := range []int{1, 2, 4, 8, 12, 16} {
		dLat, dBW := run(th, false)
		rLat, rBW := run(th, true)
		marker := ""
		if rLat < dLat {
			marker = "  <- redirection wins"
		}
		fmt.Printf("%7d  %10.0f   %14.0f   %11.2f  %15.2f%s\n", th, dLat, rLat, dBW, rBW, marker)
	}
	fmt.Println("\nMisprefetched XPLines waste up to half the PM bandwidth; once enough")
	fmt.Println("threads contend for it, copying blocks to DRAM first comes out ahead.")
}
