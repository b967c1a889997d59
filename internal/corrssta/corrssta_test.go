package corrssta

import (
	"math"
	"testing"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/ssta"
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

func TestPlacementInUnitSquare(t *testing.T) {
	c := gen.ALU("alu", 6)
	p := LevelizedPlacement(c)
	for i := range p.X {
		if p.X[i] < 0 || p.X[i] >= 1 || p.Y[i] < 0 || p.Y[i] >= 1 {
			t.Fatalf("gate %d placed at (%g, %g)", i, p.X[i], p.Y[i])
		}
	}
}

func TestFactorIndexing(t *testing.T) {
	o := Options{QuadLevels: 3}
	if o.NumFactors() != 21 {
		t.Fatalf("factors = %d, want 21", o.NumFactors())
	}
	// The die-level factor is shared by everyone.
	f1 := o.factorsAt(0.1, 0.1)
	f2 := o.factorsAt(0.9, 0.9)
	if f1[0] != f2[0] {
		t.Error("die-level factor differs")
	}
	// Opposite corners differ at the quadrant level.
	if f1[1] == f2[1] {
		t.Error("quadrant factor shared across corners")
	}
	// Same point loads exactly QuadLevels factors, ascending.
	if len(f1) != 3 {
		t.Fatalf("factor count = %d", len(f1))
	}
	for i := 1; i < len(f1); i++ {
		if f1[i] <= f1[i-1] {
			t.Error("factor indices not ascending across levels")
		}
	}
}

func TestCanonSumMoments(t *testing.T) {
	a := Canon{Mean: 10, A: []float64{1, 2}, R: 3}
	b := Canon{Mean: 5, A: []float64{2, 0}, R: 4}
	s := a.add(b)
	if s.Mean != 15 {
		t.Error("mean")
	}
	// Var(sum) = (1+2)^2 + (2+0)^2 + 3^2 + 4^2 = 9+4+25 = 38.
	if math.Abs(s.Var()-38) > 1e-12 {
		t.Errorf("var = %g, want 38", s.Var())
	}
	// Perfectly correlated shared parts add linearly: cov(a,b) = 1*2 = 2.
	if math.Abs(a.cov(b)-2) > 1e-12 {
		t.Error("cov")
	}
}

func TestMaxCanonDegenerateCorrelated(t *testing.T) {
	// Identical forms: max(X, X) = X.
	x := Canon{Mean: 100, A: []float64{5}, R: 0}
	m := maxCanon(x, x)
	if m.Mean != 100 || math.Abs(m.Sigma()-5) > 1e-12 {
		t.Fatalf("max(X,X) = %+v", m)
	}
}

func TestMaxCanonMatchesClarkWhenIndependent(t *testing.T) {
	x := Canon{Mean: 100, A: []float64{0}, R: 10}
	y := Canon{Mean: 95, A: []float64{0}, R: 20}
	m := maxCanon(x, y)
	want := clarkRef(100, 10, 95, 20)
	if math.Abs(m.Mean-want.mean) > 1e-9 || math.Abs(m.Sigma()-want.sigma) > 1e-9 {
		t.Fatalf("maxCanon = (%g, %g), Clark = (%g, %g)", m.Mean, m.Sigma(), want.mean, want.sigma)
	}
}

type ms struct{ mean, sigma float64 }

func clarkRef(m1, s1, m2, s2 float64) ms {
	a := math.Sqrt(s1*s1 + s2*s2)
	alpha := (m1 - m2) / a
	phi := math.Exp(-alpha*alpha/2) / math.Sqrt(2*math.Pi)
	t := 0.5 * (1 + math.Erf(alpha/math.Sqrt2))
	mean := m1*t + m2*(1-t) + a*phi
	nu2 := (m1*m1+s1*s1)*t + (m2*m2+s2*s2)*(1-t) + (m1+m2)*a*phi
	return ms{mean, math.Sqrt(nu2 - mean*mean)}
}

func TestFullShareChainAddsSigmasLinearly(t *testing.T) {
	// A chain of gates at the same location with Share ~ 1: sigmas add
	// linearly (fully correlated), not in quadrature.
	c := circuit.New("chain")
	prev := c.MustAddGate("a", circuit.Input)
	for i := 0; i < 10; i++ {
		g := c.MustAddGate("", circuit.Not)
		c.MustConnect(prev, g)
		prev = g
	}
	c.MustMarkOutput(prev)
	d, vm := setup(t, c)
	// One quad level => one die factor shared by the whole chain.
	full := Analyze(d, vm, Options{QuadLevels: 1, Share: 0.999})
	indep := ssta.Analyze(d, vm, ssta.Options{})
	// Correlated sigma must far exceed the independence-assumption sigma
	// (sqrt(10) vs 10 scaling => ~3x).
	if full.Sigma < 2*indep.Sigma {
		t.Fatalf("correlated sigma %g not much larger than independent %g", full.Sigma, indep.Sigma)
	}
}

func TestAgainstCorrelatedMonteCarlo(t *testing.T) {
	for _, tc := range []struct {
		c     *circuit.Circuit
		share float64
	}{
		{gen.RippleCarryAdder("rca", 6), 0.5},
		{gen.ALU("alu", 4), 0.7},
		{gen.ParityTree("par", 16), 0.3},
	} {
		d, vm := setup(t, tc.c)
		opts := Options{Share: tc.share}
		r := Analyze(d, vm, opts)
		mc, err := MonteCarlo(d, vm, opts, 20000, 5)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(r.Mean-mc.Mean) / mc.Mean; rel > 0.04 {
			t.Errorf("%s: mean %g vs MC %g (%.1f%%)", tc.c.Name, r.Mean, mc.Mean, rel*100)
		}
		if rel := math.Abs(r.Sigma-mc.Sigma) / mc.Sigma; rel > 0.15 {
			t.Errorf("%s: sigma %g vs MC %g (%.1f%%)", tc.c.Name, r.Sigma, mc.Sigma, rel*100)
		}
	}
}

func TestCorrelationBeatsIndependenceOnReconvergence(t *testing.T) {
	// On a heavily reconvergent circuit with strong spatial correlation,
	// the canonical engine must track the correlated Monte Carlo sigma
	// better than the independence-assuming FULLSSTA does.
	d, vm := setup(t, gen.SEC("sec", 16, true))
	opts := Options{Share: 0.6}
	mc, err := MonteCarlo(d, vm, opts, 30000, 9)
	if err != nil {
		t.Fatal(err)
	}
	canon := Analyze(d, vm, opts)
	indep := ssta.Analyze(d, vm, ssta.Options{})
	errCanon := math.Abs(canon.Sigma - mc.Sigma)
	errIndep := math.Abs(indep.Sigma - mc.Sigma)
	t.Logf("MC sigma %.2f; canonical %.2f (err %.2f); independent %.2f (err %.2f)",
		mc.Sigma, canon.Sigma, errCanon, indep.Sigma, errIndep)
	if errCanon >= errIndep {
		t.Errorf("canonical engine no better than independence: %g vs %g", errCanon, errIndep)
	}
}

func TestMonteCarloRejectsBadN(t *testing.T) {
	d, vm := setup(t, gen.ParityTree("p", 4))
	if _, err := MonteCarlo(d, vm, Options{}, 0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestShareZeroMatchesIndependentMoments(t *testing.T) {
	// With a tiny Share the canonical engine's circuit moments should be
	// close to the independence-assuming moments engine.
	d, vm := setup(t, gen.Comparator("cmp", 6))
	canon := Analyze(d, vm, Options{Share: 1e-9})
	indep := ssta.Analyze(d, vm, ssta.Options{Points: 25})
	if math.Abs(canon.Mean-indep.Mean)/indep.Mean > 0.03 {
		t.Errorf("means diverge: %g vs %g", canon.Mean, indep.Mean)
	}
	if math.Abs(canon.Sigma-indep.Sigma)/indep.Sigma > 0.20 {
		t.Errorf("sigmas diverge: %g vs %g", canon.Sigma, indep.Sigma)
	}
}

// TestNonFiniteShareSelectsDefault: NaN and ±Inf shares analyze exactly
// like the default share (0.5) instead of poisoning mean and sigma.
func TestNonFiniteShareSelectsDefault(t *testing.T) {
	d, vm := setup(t, gen.Comparator("cmp", 6))
	want := Analyze(d, vm, Options{})
	for _, share := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got := Analyze(d, vm, Options{Share: share})
		if got.Mean != want.Mean || got.Sigma != want.Sigma {
			t.Errorf("share %v: (%g, %g), want the default (%g, %g)", share, got.Mean, got.Sigma, want.Mean, want.Sigma)
		}
	}
}
