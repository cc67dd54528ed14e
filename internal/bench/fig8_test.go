package bench

import (
	"reflect"
	"testing"

	"optanesim/internal/machine"
)

// TestFig8SmallCellsPinned pins fig8's exact cycles per element on G1
// for every panel mode plus Fig8Epoch, each series (seq and rand, clwb
// and nt-store), at three working-set sizes under 1 MB. A MaxElements
// below the largest cell's element count makes the warmup and the
// measured phase partial passes, so the traversal position carried
// between them is pinned too.
func TestFig8SmallCellsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep; skipped in -short mode")
	}
	wss := []int{4 * KB, 64 * KB, 768 * KB}
	want := map[Fig8Mode]map[string][]float64{
		Fig8Strict: {
			"seq_clwb":      {168, 217.069, 358.3145},
			"rand_clwb":     {168, 217.069, 325.1745},
			"seq_nt-store":  {154, 216.992, 357.7335},
			"rand_nt-store": {154, 216.992, 322.2275},
		},
		Fig8Relaxed: {
			"seq_clwb":      {46.614, 216.227, 352.5275},
			"rand_clwb":     {46.614, 216.227, 295.7275},
			"seq_nt-store":  {46.607, 216.22, 352.0515},
			"rand_nt-store": {46.607, 216.22, 292.8855},
		},
		Fig8PureRead: {
			"seq_rd":  {4, 14, 262.4025},
			"rand_rd": {4, 14, 201.5465},
		},
		Fig8PureWrite: {
			"seq_clwb":      {168, 223.072, 224.995},
			"rand_clwb":     {168, 223.157, 224.995},
			"seq_nt-store":  {154, 224.446, 224.995},
			"rand_nt-store": {154, 224.531, 224.995},
		},
		Fig8Epoch: {
			"seq_clwb":      {46.614, 216.449, 357.3695},
			"rand_clwb":     {46.614, 216.449, 299.1695},
			"seq_nt-store":  {46.607, 216.412, 356.8635},
			"rand_nt-store": {46.607, 216.412, 296.2975},
		},
	}
	for _, mode := range append(append([]Fig8Mode(nil), fig8PanelModes...), Fig8Epoch) {
		series := fig8Panel(new(machine.Meter), G1, mode, Fig8Options{WSS: wss, MaxElements: 2000})
		if len(series) != len(want[mode]) {
			t.Errorf("%s: %d series, want %d", mode, len(series), len(want[mode]))
		}
		for _, s := range series {
			got := make([]float64, len(s.Points))
			for i, p := range s.Points {
				got[i] = p.Cycles
			}
			if !reflect.DeepEqual(got, want[mode][s.Label]) {
				t.Errorf("%s %s: cycles per element %v, want %v", mode, s.Label, got, want[mode][s.Label])
			}
		}
	}
}
