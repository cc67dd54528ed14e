package bench

import "testing"

// Each ablation must show its mechanism is load-bearing: disabling it
// moves the figure's metric in the predicted direction.
func TestAblationReadBufferExclusivity(t *testing.T) {
	r := ablationReadBufferExclusivity(new(Meter))
	if r.AsPaper < 3.5 {
		t.Errorf("as-characterized RA = %.2f, want ~4 (floor never below 1)", r.AsPaper)
	}
	if r.Ablated > 0.5 {
		t.Errorf("inclusive read buffer should collapse RA toward 0, got %.2f", r.Ablated)
	}
}

func TestAblationPeriodicWriteback(t *testing.T) {
	r := ablationPeriodicWriteback(new(Meter))
	if r.AsPaper < 0.7 {
		t.Errorf("full-write WA with periodic write-back = %.2f, want ~1", r.AsPaper)
	}
	if r.Ablated > 0.2 {
		t.Errorf("without periodic write-back, small full writes should coalesce: WA=%.2f", r.Ablated)
	}
}

func TestAblationBatchEviction(t *testing.T) {
	r := ablationBatchEviction(new(Meter))
	if r.Ablated <= r.AsPaper {
		t.Errorf("single-victim eviction should keep a higher hit ratio past the knee: batch=%.2f single=%.2f",
			r.AsPaper, r.Ablated)
	}
}

func TestAblationEADR(t *testing.T) {
	r := ablationEADR(new(Meter))
	if r.Ablated >= r.AsPaper {
		t.Errorf("eADR should remove the flush tax: with=%.0f without=%.0f", r.Ablated, r.AsPaper)
	}
}

func TestAblationsFormat(t *testing.T) {
	out := FormatAblations(Ablations())
	if len(out) == 0 {
		t.Fatal("empty ablation report")
	}
	t.Log("\n" + out)
}
