package fassta

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/synth"
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

// TestExtractorMatchesExtract pins the optimizer's reused extractor to
// the one-shot Extract and both to referenceRegion, the map-based
// extraction the dense one replaced, and the exact-Clark ablation cost
// to the fast cost it replaces.
func TestExtractorMatchesExtract(t *testing.T) {
	d, full, vm := setup(t, gen.SEC("sec", 16, true))
	ex := NewExtractor(d)
	ex.Prime()
	ex.epoch = math.MaxUint32 - 7 // the stamps wrap within the first few extractions
	checked := 0
	for i := range d.Circuit.Gates {
		target := d.Circuit.Gates[i].ID
		if !d.Circuit.Gates[i].Fn.IsLogic() || i%7 != 0 {
			continue
		}
		for _, depth := range []int{1, 3} {
			members, outputs := referenceRegion(d, target, depth)
			got := ex.Extract(full, vm, target, depth)
			if !slices.Equal(got.Members, members) || !slices.Equal(got.Outputs, outputs) {
				t.Fatalf("gate %d depth %d: subcircuit differs from the reference", target, depth)
			}
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

// referenceRegion is the map-based extraction: the logic gates of the
// depth-bounded fanin and fanout cones, sorted by topological position,
// and the members with a primary output, no fanout or a fanout outside.
func referenceRegion(d *synth.Design, target circuit.GateID, depth int) (members, outputs []circuit.GateID) {
	c := d.Circuit
	pos := map[circuit.GateID]int{}
	for i, id := range c.MustTopoOrder() {
		pos[id] = i
	}
	set := map[circuit.GateID]bool{}
	seed := []circuit.GateID{target}
	for _, id := range append(c.TransitiveFanin(seed, depth), c.TransitiveFanout(seed, depth)...) {
		if c.Gate(id).Fn.IsLogic() {
			set[id] = true
		}
	}
	for id := range set {
		members = append(members, id)
	}
	sort.Slice(members, func(i, j int) bool { return pos[members[i]] < pos[members[j]] })
	for _, id := range members {
		escapes := c.IsOutput(id) || len(c.Gate(id).Fanout) == 0
		for _, fo := range c.Gate(id).Fanout {
			escapes = escapes || !set[fo]
		}
		if escapes {
			outputs = append(outputs, id)
		}
	}
	return members, outputs
}
