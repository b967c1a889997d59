package normal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPhiKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{2, 0.9772498680518208},
		{3, 0.9986501019683699},
	}
	for _, tc := range cases {
		if got := Phi(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Phi(%g) = %.15f, want %.15f", tc.x, got, tc.want)
		}
	}
}

func TestPdfIntegratesToOne(t *testing.T) {
	sum := 0.0
	const dx = 1e-3
	for x := -8.0; x < 8.0; x += dx {
		sum += Pdf(x) * dx
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("pdf integral = %g", sum)
	}
}

// TestErfApproxTwoDecimals verifies the paper's claim (section 4.3) that
// the quadratic approximation is accurate to two decimal places. The true
// worst-case error of the CRC formula is 0.00534 (just over a strict
// half-ULP-of-two-decimals reading), so the envelope here is 0.006.
func TestErfApproxTwoDecimals(t *testing.T) {
	worst := 0.0
	for x := -6.0; x <= 6.0; x += 1e-3 {
		err := math.Abs(PhiApprox(x) - Phi(x))
		if err > worst {
			worst = err
		}
	}
	if worst > 0.006 {
		t.Fatalf("worst PhiApprox error = %g, want <= 0.006 (two decimals)", worst)
	}
}

func TestPhiApproxOddSymmetry(t *testing.T) {
	prop := func(x float64) bool {
		x = math.Mod(x, 10)
		return math.Abs((PhiApprox(x)-0.5)+(PhiApprox(-x)-0.5)) < 1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPhiApproxSaturates(t *testing.T) {
	if PhiApprox(2.61) != 1.0 {
		t.Errorf("PhiApprox(2.61) = %g, want 1", PhiApprox(2.61))
	}
	if PhiApprox(-2.61) != 0.0 {
		t.Errorf("PhiApprox(-2.61) = %g, want 0", PhiApprox(-2.61))
	}
	if PhiApprox(2.4) != 0.99 {
		t.Errorf("PhiApprox(2.4) = %g, want 0.99", PhiApprox(2.4))
	}
}

func TestDominance(t *testing.T) {
	a := Moments{Mean: 100, Var: 9}
	b := Moments{Mean: 50, Var: 16}
	if Dominance(a, b) != +1 {
		t.Error("expected A dominant")
	}
	if Dominance(b, a) != -1 {
		t.Error("expected B dominant")
	}
	c := Moments{Mean: 100, Var: 100}
	d := Moments{Mean: 95, Var: 100}
	if Dominance(c, d) != 0 {
		t.Error("expected no dominance for close means")
	}
	// Degenerate: zero variance resolves by mean comparison.
	if Dominance(Moments{Mean: 2}, Moments{Mean: 1}) != +1 {
		t.Error("degenerate dominance wrong")
	}
}

func TestDominanceBoundaryAt26Sigma(t *testing.T) {
	// Exactly at 2.6 normalized separation: dominance applies.
	a := Moments{Mean: 2.6, Var: 0.5}
	b := Moments{Mean: 0, Var: 0.5}
	if Dominance(a, b) != +1 {
		t.Error("2.6 sigma separation should dominate")
	}
	a.Mean = 2.59
	if Dominance(a, b) != 0 {
		t.Error("2.59 sigma separation should not dominate")
	}
}

// monteCarloMax estimates moments of max(A,B) by sampling.
func monteCarloMax(a, b Moments, n int, rng *rand.Rand) Moments {
	var sum, sumsq float64
	sa, sb := a.Sigma(), b.Sigma()
	for i := 0; i < n; i++ {
		x := a.Mean + sa*rng.NormFloat64()
		y := b.Mean + sb*rng.NormFloat64()
		m := math.Max(x, y)
		sum += m
		sumsq += m * m
	}
	mean := sum / float64(n)
	return Moments{Mean: mean, Var: sumsq/float64(n) - mean*mean}
}

func TestMaxExactAgainstMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct{ a, b Moments }{
		{Moments{100, 100}, Moments{100, 100}},         // identical
		{Moments{100, 400}, Moments{110, 100}},         // close means, diff vars
		{Moments{320, 27 * 27}, Moments{310, 45 * 45}}, // paper fig. 3 pair
		{Moments{0, 1}, Moments{0.5, 4}},
		{Moments{50, 1}, Moments{49, 1}},
	}
	const n = 400000
	for _, tc := range cases {
		mc := monteCarloMax(tc.a, tc.b, n, rng)
		got := MaxExact(tc.a, tc.b)
		if math.Abs(got.Mean-mc.Mean) > 0.02*math.Max(1, mc.Mean) {
			t.Errorf("MaxExact(%v,%v).Mean = %g, MC = %g", tc.a, tc.b, got.Mean, mc.Mean)
		}
		if math.Abs(got.Sigma()-mc.Sigma()) > 0.05*math.Max(1, mc.Sigma()) {
			t.Errorf("MaxExact(%v,%v).Sigma = %g, MC = %g", tc.a, tc.b, got.Sigma(), mc.Sigma())
		}
	}
}

func TestMaxApproxCloseToExact(t *testing.T) {
	prop := func(muA, muB, sA, sB float64) bool {
		a := Moments{Mean: 50 + math.Mod(math.Abs(muA), 100), Var: 1 + math.Mod(math.Abs(sA), 400)}
		b := Moments{Mean: 50 + math.Mod(math.Abs(muB), 100), Var: 1 + math.Mod(math.Abs(sB), 400)}
		ex := MaxExact(a, b)
		ap := MaxApprox(a, b)
		scale := math.Sqrt(a.Var + b.Var)
		// Mean error bounded by the Phi approximation error times the
		// mean separation scale; generous envelope of 5% of sigma-scale.
		if math.Abs(ap.Mean-ex.Mean) > 0.05*scale+1e-9 {
			return false
		}
		if math.Abs(ap.Sigma()-ex.Sigma()) > 0.15*scale+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Properties of the exact max operator.
func TestMaxExactProperties(t *testing.T) {
	gen := func(seed int64) (Moments, Moments) {
		rng := rand.New(rand.NewSource(seed))
		return Moments{Mean: rng.Float64() * 200, Var: rng.Float64()*300 + 0.1},
			Moments{Mean: rng.Float64() * 200, Var: rng.Float64()*300 + 0.1}
	}
	prop := func(seed int64) bool {
		a, b := gen(seed)
		m := MaxExact(a, b)
		// E[max] >= max of means.
		if m.Mean < math.Max(a.Mean, b.Mean)-1e-9 {
			return false
		}
		// Symmetry.
		m2 := MaxExact(b, a)
		if math.Abs(m.Mean-m2.Mean) > 1e-9 || math.Abs(m.Var-m2.Var) > 1e-9 {
			return false
		}
		// Non-negative variance.
		return m.Var >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxExactShiftInvariance(t *testing.T) {
	prop := func(seed int64, shiftRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Moments{Mean: rng.Float64() * 100, Var: rng.Float64()*50 + 1}
		b := Moments{Mean: rng.Float64() * 100, Var: rng.Float64()*50 + 1}
		shift := math.Mod(shiftRaw, 500)
		m := MaxExact(a, b)
		a.Mean += shift
		b.Mean += shift
		ms := MaxExact(a, b)
		return math.Abs(ms.Mean-(m.Mean+shift)) < 1e-7 && math.Abs(ms.Var-m.Var) < 1e-7
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxApproxDominantShortcutExactness(t *testing.T) {
	// When one input dominates, MaxApprox returns it bit-for-bit.
	a := Moments{Mean: 500, Var: 25}
	b := Moments{Mean: 100, Var: 25}
	if got := MaxApprox(a, b); got != a {
		t.Errorf("dominant shortcut not taken: %v", got)
	}
	if got := MaxApprox(b, a); got != a {
		t.Errorf("dominant shortcut (swapped) not taken: %v", got)
	}
}

func TestMomentsAdd(t *testing.T) {
	a := Moments{Mean: 10, Var: 4}
	b := Moments{Mean: 5, Var: 9}
	if got := a.Add(b); got.Mean != 15 || got.Var != 13 {
		t.Errorf("Add = %v", got)
	}
}

func TestVarMaxSensitivitySigns(t *testing.T) {
	// Raising the mean of the low-variance dominant input pulls the max
	// toward a deterministic value -> variance decreases or stays flat;
	// raising the mean of the high-variance input increases the variance
	// contribution of that input.
	lowVar := Moments{Mean: 320, Var: 27 * 27}
	highVar := Moments{Mean: 310, Var: 45 * 45}
	sHigh := VarMaxSensitivity(highVar, lowVar, 0.08, 0.01)
	sLow := VarMaxSensitivity(lowVar, highVar, 0.08, 0.01)
	if sHigh <= sLow {
		t.Errorf("expected high-variance input to have larger sensitivity: high=%g low=%g", sHigh, sLow)
	}
}

func TestVarMaxSensitivityZeroMeanConditioning(t *testing.T) {
	// Near-zero mean must not blow up (floor on h).
	a := Moments{Mean: 0, Var: 1}
	b := Moments{Mean: 0, Var: 1}
	s := VarMaxSensitivity(a, b, 0.08, 0.01)
	if math.IsNaN(s) || math.IsInf(s, 0) {
		t.Fatalf("sensitivity ill-conditioned: %g", s)
	}
}

func TestSigmaOfNonPositiveVariance(t *testing.T) {
	if (Moments{Mean: 1, Var: -4}).Sigma() != 0 {
		t.Error("negative variance should give sigma 0")
	}
	if (Moments{Mean: 1, Var: 0}).Sigma() != 0 {
		t.Error("zero variance should give sigma 0")
	}
}

// TestClarkMaxClampsRoundOff pins the variance guard deterministically:
// with means far above the spread, nu2 - nu1^2 cancels catastrophically
// and must clamp at zero instead of going negative.
func TestClarkMaxClampsRoundOff(t *testing.T) {
	a := Moments{Mean: 1e6, Var: 1e-6}
	for _, m := range []Moments{MaxExact(a, a), MaxApprox(a, a)} {
		if m.Var < 0 || math.IsNaN(m.Sigma()) {
			t.Fatalf("max of two near-deterministic arrivals: %+v", m)
		}
	}
}
