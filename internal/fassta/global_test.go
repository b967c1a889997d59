package fassta

import (
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
)

// TestAnalyzeGlobalTracksFULLSSTA checks the whole-circuit moments
// engine with both max operators: the deterministic part is sta.Analyze
// itself, the circuit mean stays near FULLSSTA's, and arrival means
// never decrease along an edge.
func TestAnalyzeGlobalTracksFULLSSTA(t *testing.T) {
	d, full, vm := setup(t, gen.ALU("alu", 4))
	for _, approx := range []bool{true, false} {
		g := AnalyzeGlobal(d, vm, approx)
		if g.STA.MaxArrival != full.STA.MaxArrival {
			t.Fatalf("approx=%v: nominal delay %g, FULLSSTA's %g", approx, g.STA.MaxArrival, full.STA.MaxArrival)
		}
		if rel := math.Abs(g.Mean-full.Mean) / full.Mean; rel > 0.05 || g.Sigma <= 0 {
			t.Fatalf("approx=%v: (mu, sigma) = (%g, %g) vs FULLSSTA mu %g", approx, g.Mean, g.Sigma, full.Mean)
		}
		for i := range d.Circuit.Gates {
			for _, f := range d.Circuit.Gates[i].Fanin {
				if g.Node[f].Mean > g.Node[i].Mean+1e-9 {
					t.Fatalf("approx=%v: arrival mean decreases along edge %d -> %d", approx, f, i)
				}
			}
		}
	}
}

// TestExtractorMatchesExtract pins the optimizer's cached-index
// extractor to the one-shot Extract, and the exact-Clark ablation cost
// to the fast cost it replaces.
func TestExtractorMatchesExtract(t *testing.T) {
	d, full, vm := setup(t, gen.SEC("sec", 16, true))
	ex := NewExtractor(d)
	ex.Prime()
	checked := 0
	for i := range d.Circuit.Gates {
		target := d.Circuit.Gates[i].ID
		if !d.Circuit.Gates[i].Fn.IsLogic() || i%7 != 0 {
			continue
		}
		want := Extract(d, full, vm, target, 2)
		got := ex.Extract(full, vm, target, 2)
		if !slices.Equal(got.Members, want.Members) || !slices.Equal(got.Outputs, want.Outputs) {
			t.Fatalf("gate %d: extractor subcircuit differs from Extract", target)
		}
		for size := 0; size < d.Lib.NumSizes(d.Kind(target)); size++ {
			fast := want.Cost(size, 3)
			if got.Cost(size, 3) != fast {
				t.Fatalf("gate %d size %d: extractor cost differs", target, size)
			}
			if exact := got.CostExact(size, 3); math.Abs(exact-fast)/fast > 0.02 {
				t.Fatalf("gate %d size %d: exact-max cost %g vs fast %g", target, size, exact, fast)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no logic gate checked")
	}
}
