package cceh

import (
	"optanesim/internal/mem"
	"optanesim/internal/pmem"
)

// PrefetchDepth is how many keys ahead of the worker the helper thread
// runs; the paper empirically found 8 to perform best (§4.1).
const PrefetchDepth = 8

// HelperBatch is the helper's effective memory-level parallelism across
// keys: the helper has no stores, fences or data dependencies, so it is
// modeled as issuing HelperBatch keys' loads concurrently.
const HelperBatch = 4

// ProgressBytes sizes the worker-to-helper progress block: word 0 holds
// the index of the next key the worker will insert, word 1 the done
// flag. The worker publishes both with timed stores (Session.Store64)
// and the helper reads them with timed loads, so the block is an
// ordinary shared cacheline of the simulated machine and the observed
// interleaving is a property of simulated time alone.
const ProgressBytes = 16

// PrefetchPlan precomputes the helper's load addresses for each
// HelperBatch-sized group of upcoming keys from a host-side snapshot
// of the directory, taken when it is called (typically right after
// prebuild, before the measured run). Segment splits during the run
// leave plan entries pointing at pre-split segments, trading a little
// warming accuracy for a helper body that reads only the slice it owns
// and the progress block in simulated memory.
func (t *Table) PrefetchPlan(keys []uint64) [][]mem.Addr {
	depth := uint(t.heap.Uint64(t.dir))
	plan := make([][]mem.Addr, 0, (len(keys)+HelperBatch-1)/HelperBatch)
	for i := 0; i < len(keys); i += HelperBatch {
		addrs := make([]mem.Addr, 0, HelperBatch*(1+2))
		for j := i; j < i+HelperBatch && j < len(keys); j++ {
			h := hashKey(keys[j])
			dirSlot := t.dirEntry(dirIndex(h, depth))
			addrs = append(addrs, dirSlot)
			segAddr := mem.Addr(t.heap.Uint64(dirSlot))
			if !t.heap.Contains(segAddr) {
				continue
			}
			// Metadata plus the first probe bucket, like the worker's
			// critical path.
			b0 := bucketIndex(h)
			addrs = append(addrs, segAddr, bucketAddr(segAddr, b0))
		}
		plan = append(plan, addrs)
	}
	return plan
}

// HelperPlan runs the speculative prefetch loop on a sibling
// hyperthread (§4.1): it replays a PrefetchPlan, executing only the
// loads of the insert path — directory entry, segment metadata and
// first probe bucket — to warm the AIT, the on-DIMM read buffer and the
// shared L1/L2. None of the worker's stores, persists or synchronization
// remain, so the helper is faster than the worker; it paces itself
// against the ProgressBytes block at prog to stay at most PrefetchDepth
// keys ahead, and stops once the worker sets the done flag.
func HelperPlan(s *pmem.Session, plan [][]mem.Addr, prog mem.Addr) {
	for i, addrs := range plan {
		// Throttle: stay at most PrefetchDepth keys ahead.
		for s.Load64(prog+8) == 0 && i*HelperBatch >= int(s.Load64(prog))+PrefetchDepth {
			s.T.Compute(60)
		}
		if s.Load64(prog+8) != 0 {
			return
		}
		s.T.LoadParallel(addrs...)
	}
}

// InsertBatch inserts keys[i] -> values derived from keys and returns
// the number inserted. A non-zero prog (heaps never hand out address 0)
// is the ProgressBytes block a HelperPlan helper paces against: the
// worker publishes each key's index before inserting it, and the done
// flag after the last.
func (t *Table) InsertBatch(s *pmem.Session, keys []uint64, prog mem.Addr) int {
	n := 0
	for i, k := range keys {
		if prog != 0 {
			s.Store64(prog, uint64(i))
		}
		s.Tag(TagMisc)
		s.Compute(YCSBClientCycles)
		if err := t.Insert(s, k, k^0xABCD); err == nil {
			n++
		}
	}
	if prog != 0 {
		s.Store64(prog+8, 1)
	}
	return n
}
