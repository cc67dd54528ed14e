package bench

import (
	"testing"

	"optanesim/internal/machine"
)

// TestFig10CellsIndependent pins fig10's prebuilt shards: each worker
// count builds its shards once, and its base and its helper cell each
// rewind them, so both cells of a point must equal the same cell run on
// shards of its own, freshly built.
func TestFig10CellsIndependent(t *testing.T) {
	o := Fig10Options{Workers: []int{1, 3}, PrebuildKeys: 20_000, TotalInserts: 600}
	swept := Fig10(o)
	o.defaults()
	for i, w := range o.Workers {
		var m machine.Meter
		alone := Fig10Point{Workers: w}
		alone.BaseCycles, alone.BaseMops = fig10Run(&m, o, fig10Prebuild(o, w), false)
		alone.HelpCycles, alone.HelpMops = fig10Run(&m, o, fig10Prebuild(o, w), true)
		if swept[i] != alone {
			t.Errorf("%d workers: swept %+v, alone %+v", w, swept[i], alone)
		}
	}
}
