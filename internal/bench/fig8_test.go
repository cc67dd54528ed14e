package bench

import (
	"reflect"
	"testing"

	"optanesim/internal/machine"
)

// TestFig8SmallCellsPinned pins fig8's exact cycles per element on G1
// and G2 for every panel mode plus Fig8Epoch, each series (seq and rand,
// clwb and nt-store), at three working-set sizes under 1 MB. A
// MaxElements below the largest cell's element count makes the warmup
// and the measured phase partial passes, so the traversal position
// carried between them is pinned too.
func TestFig8SmallCellsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep; skipped in -short mode")
	}
	wss := []int{4 * KB, 64 * KB, 768 * KB}
	want := map[Gen]map[Fig8Mode]map[string][]float64{
		G1: {
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
		},
		G2: {
			Fig8Strict: {
				"seq_clwb":      {187, 527.873, 552.859},
				"rand_clwb":     {187, 527.873, 522.9335},
				"seq_nt-store":  {155, 218.903, 419.241},
				"rand_nt-store": {155, 218.903, 383.5695},
			},
			Fig8Relaxed: {
				"seq_clwb":      {164.5, 525.845, 549.779},
				"rand_clwb":     {164.5, 525.845, 515.7975},
				"seq_nt-store":  {46.6075, 218.13, 413.701},
				"rand_nt-store": {46.6075, 218.13, 354.3695},
			},
			Fig8PureRead: {
				"seq_rd":  {5, 16, 322.19},
				"rand_rd": {5, 16, 261.1685},
			},
			Fig8PureWrite: {
				"seq_clwb":      {187, 559.8, 574.745},
				"rand_clwb":     {187, 559.42, 568},
				"seq_nt-store":  {155, 559.8, 574.745},
				"rand_nt-store": {155, 559.42, 568},
			},
			Fig8Epoch: {
				"seq_clwb":      {166, 527.857, 552.843},
				"rand_clwb":     {166, 527.857, 518.6215},
				"seq_nt-store":  {46.6075, 218.903, 419.241},
				"rand_nt-store": {46.6075, 218.903, 358.5095},
			},
		},
	}
	for _, gen := range []Gen{G1, G2} {
		for _, mode := range append(append([]Fig8Mode(nil), fig8PanelModes...), Fig8Epoch) {
			series := fig8Panel(new(machine.Meter), gen, mode, Fig8Options{WSS: wss, MaxElements: 2000})
			if len(series) != len(want[gen][mode]) {
				t.Errorf("%v %s: %d series, want %d", gen, mode, len(series), len(want[gen][mode]))
			}
			for _, s := range series {
				got := make([]float64, len(s.Points))
				for i, p := range s.Points {
					got[i] = p.Cycles
				}
				if !reflect.DeepEqual(got, want[gen][mode][s.Label]) {
					t.Errorf("%v %s %s: cycles per element %v, want %v", gen, mode, s.Label, got, want[gen][mode][s.Label])
				}
			}
		}
	}
}

// TestFig8PastAITReachPinned pins the exact cycles per element of a
// 64 MB random cell on both generations, strict (clwb and nt-store) and
// pure-read. Its 6,000 warmup and 6,000 measured visits touch about
// 8,500 distinct 4 KB granules, past the 4,096-entry AIT cache's 16 MB
// reach, so the AIT and the read buffer evict throughout; the small
// cells above never reach either.
func TestFig8PastAITReachPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep; skipped in -short mode")
	}
	cases := []struct {
		gen     Gen
		mode    Fig8Mode
		ntStore bool
		want    float64
	}{
		{G1, Fig8Strict, false, 910.5971666666667},
		{G1, Fig8Strict, true, 896.6205},
		{G1, Fig8PureRead, false, 746.8705},
		{G2, Fig8Strict, false, 989.461},
		{G2, Fig8Strict, true, 955.5176666666666},
		{G2, Fig8PureRead, false, 805.7676666666666},
	}
	for _, c := range cases {
		o := Fig8Options{Gen: c.gen, Mode: c.mode, Random: true, NTStore: c.ntStore, MaxElements: 6000}
		o.defaults()
		if got := fig8Run(new(machine.Meter), c.gen.Config(1), o, 64*MB); got != c.want {
			t.Errorf("%v %s nt-store=%v: cycles per element %v, want %v", c.gen, c.mode, c.ntStore, got, c.want)
		}
	}
}
