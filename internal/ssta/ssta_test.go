package ssta

import (
	"math"
	"testing"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/montecarlo"
	"repro/internal/synth"
	"repro/internal/variation"
)

func setup(t *testing.T, c *circuit.Circuit) (*synth.Design, *variation.Model) {
	t.Helper()
	lib := cells.Default90nm()
	d, err := synth.Map(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	return d, variation.Default(lib)
}

func TestMeanTracksNominalSTA(t *testing.T) {
	d, vm := setup(t, gen.RippleCarryAdder("rca", 8))
	r := Analyze(d, vm, Options{})
	// The statistical mean must exceed the nominal deterministic delay
	// (max of RVs shifts the mean up) but stay in its neighbourhood.
	if r.Mean < r.STA.MaxArrival {
		t.Errorf("statistical mean %g below nominal %g", r.Mean, r.STA.MaxArrival)
	}
	if r.Mean > 1.5*r.STA.MaxArrival {
		t.Errorf("statistical mean %g unreasonably above nominal %g", r.Mean, r.STA.MaxArrival)
	}
	if r.Sigma <= 0 {
		t.Error("zero circuit sigma")
	}
}

func TestAgainstMonteCarlo(t *testing.T) {
	// Tolerances are tiered: in a tree (each signal used once) fanin
	// arrivals are truly independent and FULLSSTA should match Monte
	// Carlo closely; in reconvergent circuits the engine's independence
	// assumption overestimates the mean slightly and underestimates the
	// sigma (the known Liou-style limitation the paper notes PCA would
	// fix), so the envelope is wider.
	cases := []struct {
		c                 *circuit.Circuit
		meanTol, sigmaTol float64
	}{
		{gen.ParityTree("par", 16), 0.02, 0.08},
		{gen.RippleCarryAdder("rca", 6), 0.05, 0.25},
		{gen.ALU("alu", 4), 0.05, 0.25},
		{gen.Comparator("cmp", 8), 0.05, 0.25},
	}
	for _, tc := range cases {
		d, vm := setup(t, tc.c)
		r := Analyze(d, vm, Options{Points: 15})
		mc, err := montecarlo.Analyze(d, vm, 20000, 7)
		if err != nil {
			t.Fatal(err)
		}
		if relErr := math.Abs(r.Mean-mc.Mean) / mc.Mean; relErr > tc.meanTol {
			t.Errorf("%s: mean %g vs MC %g (%.1f%%)", tc.c.Name, r.Mean, mc.Mean, relErr*100)
		}
		if relErr := math.Abs(r.Sigma-mc.Sigma) / mc.Sigma; relErr > tc.sigmaTol {
			t.Errorf("%s: sigma %g vs MC %g (%.1f%%)", tc.c.Name, r.Sigma, mc.Sigma, relErr*100)
		}
	}
}

func TestNodeMomentsMatchArrivalPDFs(t *testing.T) {
	d, vm := setup(t, gen.SEC("sec", 8, true))
	r := Analyze(d, vm, Options{})
	for i := range d.Circuit.Gates {
		if d.Circuit.Gates[i].Fn == circuit.Input {
			continue
		}
		m := r.Arrival(circuit.GateID(i)).Moments()
		if math.Abs(m.Mean-r.Node[i].Mean) > 1e-9 || math.Abs(m.Var-r.Node[i].Var) > 1e-9 {
			t.Fatalf("gate %d: Node moments diverge from Arrival PDF", i)
		}
	}
}

func TestArrivalMeanMonotoneAlongEdges(t *testing.T) {
	d, vm := setup(t, gen.ALU("alu", 5))
	r := Analyze(d, vm, Options{})
	for i := range d.Circuit.Gates {
		g := &d.Circuit.Gates[i]
		for _, f := range g.Fanin {
			if r.Node[f].Mean > r.Node[g.ID].Mean+1e-9 {
				t.Fatalf("arrival mean decreases along edge %d -> %d", f, g.ID)
			}
		}
	}
}

func TestCircuitPDFDominatesEveryPO(t *testing.T) {
	d, vm := setup(t, gen.Comparator("cmp", 6))
	r := Analyze(d, vm, Options{})
	for _, po := range d.Circuit.Outputs {
		if r.Node[po].Mean > r.Mean+1e-9 {
			t.Fatalf("PO mean %g exceeds circuit mean %g", r.Node[po].Mean, r.Mean)
		}
	}
}

func TestCostAndWorstOutput(t *testing.T) {
	d, vm := setup(t, gen.Comparator("cmp", 6))
	r := Analyze(d, vm, Options{})
	for _, lambda := range []float64{0, 3, 9} {
		cost := r.Cost(d, lambda)
		wo := r.WorstOutput(d, lambda)
		m := r.Node[wo]
		if math.Abs(cost-(m.Mean+lambda*m.Sigma())) > 1e-9 {
			t.Fatalf("lambda=%g: cost %g inconsistent with worst output", lambda, cost)
		}
	}
	// At high lambda the worst output can differ from the worst-mean one.
	// (Not guaranteed for every circuit; just ensure both are valid POs.)
	if r.WorstOutput(d, 0) == circuit.None || r.WorstOutput(d, 50) == circuit.None {
		t.Fatal("WorstOutput returned None")
	}
}

func TestYieldMonotoneInT(t *testing.T) {
	d, vm := setup(t, gen.ParityTree("par", 8))
	r := Analyze(d, vm, Options{})
	prev := -1.0
	for _, frac := range []float64{0.8, 0.9, 1.0, 1.1, 1.2} {
		y := r.Yield(r.Mean * frac)
		if y < prev {
			t.Fatalf("yield not monotone at %g", frac)
		}
		prev = y
	}
	if y := r.Yield(r.Mean * 2); y < 0.999 {
		t.Errorf("yield at 2x mean = %g, want ~1", y)
	}
}

func TestMorePointsCloserToMC(t *testing.T) {
	d, vm := setup(t, gen.RippleCarryAdder("rca", 8))
	mc, err := montecarlo.Analyze(d, vm, 30000, 11)
	if err != nil {
		t.Fatal(err)
	}
	errAt := func(pts int) float64 {
		r := Analyze(d, vm, Options{Points: pts})
		return math.Abs(r.Sigma-mc.Sigma) / mc.Sigma
	}
	coarse := errAt(5)
	fine := errAt(25)
	if fine > coarse+0.02 {
		t.Errorf("finer sampling did not improve sigma accuracy: 5pt err %.3f vs 25pt err %.3f", coarse, fine)
	}
}

func TestDeepCircuitHasLowerSigmaOverMu(t *testing.T) {
	// The paper's key structural observation: long paths average out
	// variation, so deep circuits have lower sigma/mu.
	shallow, vmS := setup(t, gen.ParityTree("par", 32))
	deep, vmD := setup(t, gen.ArrayMultiplier("mul", 8, false))
	rs := Analyze(shallow, vmS, Options{})
	rd := Analyze(deep, vmD, Options{})
	ratioS := rs.Sigma / rs.Mean
	ratioD := rd.Sigma / rd.Mean
	if ratioD >= ratioS {
		t.Errorf("deep circuit sigma/mu %.4f not below shallow %.4f", ratioD, ratioS)
	}
}

func TestUpsizingReducesCircuitSigma(t *testing.T) {
	d, vm := setup(t, gen.ParityTree("par", 16))
	r0 := Analyze(d, vm, Options{})
	for i := range d.Circuit.Gates {
		if d.Circuit.Gates[i].CellRef >= 0 {
			d.Circuit.Gates[i].SizeIdx = 5
		}
	}
	r1 := Analyze(d, vm, Options{})
	if r1.Sigma >= r0.Sigma {
		t.Errorf("upsizing everything did not reduce sigma: %g -> %g", r0.Sigma, r1.Sigma)
	}
}
