package bench

import (
	"bytes"
	"testing"

	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/pmem"
)

// TestFig10CellsIndependent pins fig10's prebuilt shards: each worker
// count builds its shards once, and its base and its helper cell each
// rewind them after running, so both cells of a point must equal the
// same cell run on shards of its own, freshly built. At this scale a
// cell on an un-rewound shard re-inserts the same keys in the same
// time, so the test also checks each shard's bytes after every cell
// against its bytes right after the prebuild: a dropped Rewind, or a
// write the shard's mark did not log, fails there.
func TestFig10CellsIndependent(t *testing.T) {
	o := Fig10Options{Workers: []int{1, 3}, PrebuildKeys: 20_000, TotalInserts: 600}
	swept := Fig10(o)
	o.defaults()
	for i, w := range o.Workers {
		var m machine.Meter
		alone := Fig10Point{Workers: w}
		for _, helper := range []bool{false, true} {
			shards := fig10Prebuild(o, w)
			built := make([][]byte, len(shards))
			for j, sh := range shards {
				built[j] = heapImage(sh.heap)
			}
			cyc, mops := fig10Run(&m, o, shards, helper)
			if helper {
				alone.HelpCycles, alone.HelpMops = cyc, mops
			} else {
				alone.BaseCycles, alone.BaseMops = cyc, mops
			}
			for j, sh := range shards {
				if got := heapImage(sh.heap); !bytes.Equal(got, built[j]) {
					t.Errorf("%d workers, helper %v: shard %d after the cell differs from its prebuild (%d bytes, built %d)",
						w, helper, j, len(got), len(built[j]))
				}
			}
		}
		if swept[i] != alone {
			t.Errorf("%d workers: swept %+v, alone %+v", w, swept[i], alone)
		}
	}
}

// heapImage copies a heap's allocated lines.
func heapImage(h *pmem.Heap) []byte {
	n := min((h.Used()+mem.CachelineSize-1)&^(mem.CachelineSize-1), h.Size())
	return append([]byte(nil), h.Bytes(h.Base(), int(n))...)
}
