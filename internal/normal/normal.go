// Package normal is the Gaussian toolbox behind FASSTA and WNSS tracing:
// the standard normal density and CDF, the paper's quadratic approximation
// of the error function (section 4.3), Clark's first two moments of
// max(A,B) for independent normals (Clark 1961, paper eqs. 1-3), the
// dominance shortcuts of paper eqs. 5/6, and the coupled finite-difference
// variance sensitivity used by the WNSS trace (section 4.4).
package normal

import "math"

// Moments is a (mean, variance) pair describing a normal random variable.
// Variance is stored (not standard deviation) because sum/max compose on
// variances.
type Moments struct {
	Mean float64
	Var  float64
}

// Sigma returns the standard deviation.
func (m Moments) Sigma() float64 {
	if m.Var <= 0 {
		return 0
	}
	return math.Sqrt(m.Var)
}

// Add returns the moments of the sum of two independent normals.
func (m Moments) Add(o Moments) Moments {
	return Moments{Mean: m.Mean + o.Mean, Var: m.Var + o.Var}
}

// Phi is the standard normal CDF, computed from the exact error function.
func Phi(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// Pdf is the standard normal density.
func Pdf(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}

// PhiApprox is the paper's quadratic approximation of the standard normal
// CDF: Phi(x) = 1/2 + q(x) with
//
//	q(x) = 0.1*x*(4.4-x)   0   <= x <= 2.2
//	     = 0.49            2.2 <  x <= 2.6
//	     = 0.50            x   >  2.6
//
// extended to negative x by odd symmetry of q. Accurate to two decimal
// places (verified in tests), which the paper shows is sufficient for
// ranking gate-size candidates.
func PhiApprox(x float64) float64 {
	return 0.5 + qApprox(x)
}

func qApprox(x float64) float64 {
	neg := false
	if x < 0 {
		x, neg = -x, true
	}
	var q float64
	switch {
	case x <= 2.2:
		q = 0.1 * x * (4.4 - x)
	case x <= 2.6:
		q = 0.49
	default:
		q = 0.50
	}
	if neg {
		return -q
	}
	return q
}

// DominanceThreshold is the normalized mean separation beyond which one
// input fully dominates the statistical max (paper eqs. 5/6): at 2.6
// standard deviations the approximated Phi saturates at exactly 0 or 1.
const DominanceThreshold = 2.6

// Dominance classifies the pair (A, B) for the max operation:
//
//	+1 if A dominates (paper eq. 5): (muA-muB)/a >= 2.6
//	-1 if B dominates (paper eq. 6): (muA-muB)/a <= -2.6
//	 0 if neither dominates and Clark's formulas are needed.
//
// a = sqrt(varA + varB) under the independence assumption (rho = 0).
// A degenerate a == 0 is resolved by comparing means.
func Dominance(a, b Moments) int {
	s := math.Sqrt(a.Var + b.Var)
	d := a.Mean - b.Mean
	if s == 0 {
		switch {
		case d >= 0:
			return +1
		default:
			return -1
		}
	}
	switch alpha := d / s; {
	case alpha >= DominanceThreshold:
		return +1
	case alpha <= -DominanceThreshold:
		return -1
	}
	return 0
}

// MaxExact returns Clark's first two moments of max(A,B) for independent
// normals using the exact Phi. This is the reference implementation; the
// optimizer's inner loop uses MaxApprox.
func MaxExact(a, b Moments) Moments {
	return clarkMax(a, b, Phi)
}

// MaxApprox returns the moments of max(A,B) using the paper's fast path:
// the dominance shortcuts first (no computation at all in the common
// case), then Clark's formulas with the quadratic Phi approximation.
func MaxApprox(a, b Moments) Moments {
	switch Dominance(a, b) {
	case +1:
		return a
	case -1:
		return b
	}
	return clarkMax(a, b, PhiApprox)
}

// clarkMax evaluates paper eqs. (1)-(3):
//
//	a^2   = varA + varB            (independence: rho = 0)
//	alpha = (muA - muB) / a
//	nu1   = muA*Phi(alpha) + muB*Phi(-alpha) + a*pdf(alpha)
//	nu2   = (muA^2+varA)*Phi(alpha) + (muB^2+varB)*Phi(-alpha)
//	        + (muA+muB)*a*pdf(alpha)
//	Var   = nu2 - nu1^2
func clarkMax(a, b Moments, cdf func(float64) float64) Moments {
	s2 := a.Var + b.Var
	if s2 <= 0 {
		// Both deterministic: max of two numbers.
		if a.Mean >= b.Mean {
			return a
		}
		return b
	}
	s := math.Sqrt(s2)
	alpha := (a.Mean - b.Mean) / s
	pa := cdf(alpha)
	pb := cdf(-alpha)
	ph := Pdf(alpha)
	nu1 := a.Mean*pa + b.Mean*pb + s*ph
	nu2 := (a.Mean*a.Mean+a.Var)*pa + (b.Mean*b.Mean+b.Var)*pb + (a.Mean+b.Mean)*s*ph
	v := nu2 - nu1*nu1
	if v < 0 {
		// Guard against approximation round-off near dominance.
		v = 0
	}
	return Moments{Mean: nu1, Var: v}
}

// VarMaxSensitivity approximates d Var(max(A,B)) / d muA by the coupled
// forward finite difference of paper section 4.4:
//
//	(Var(muA+h, sigmaA + c*h, B) - Var(A, B)) / h
//
// where the sigma perturbation g = c*h models that mean and sigma along a
// path move together (c is the same coefficient the variation model uses
// to relate mean delay to sigma). h is chosen as hFrac of muA (the paper
// uses ~1%), with a floor to stay well-conditioned near zero means.
func VarMaxSensitivity(a, b Moments, c, hFrac float64) float64 {
	h := hFrac * math.Abs(a.Mean)
	if h < 1e-9 {
		h = 1e-9
	}
	base := MaxApprox(a, b).Var
	sigmaA := a.Sigma() + c*h
	pert := Moments{Mean: a.Mean + h, Var: sigmaA * sigmaA}
	return (MaxApprox(pert, b).Var - base) / h
}
