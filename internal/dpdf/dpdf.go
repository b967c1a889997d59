// Package dpdf implements discrete probability density functions and the
// two operators statistical timing needs: Sum (convolution) and Max
// (distribution of the maximum under independence).
//
// This is the engine behind FULLSSTA, following the discretized-PDF
// approach of Liou et al. (DAC 2001) that the paper builds on: PDFs are
// kept as a small set of weighted points (the paper uses 10-15 samples per
// PDF as its accuracy/speed tradeoff), operations produce larger supports
// that are resampled back down.
package dpdf

import (
	"fmt"
	"math"

	"repro/internal/normal"
)

// PDF is a discrete probability distribution: strictly ascending support
// xs with matching probabilities ps that sum to one. The zero value is an
// invalid PDF; construct with Point, FromNormal or FromSamples.
type PDF struct {
	xs []float64
	ps []float64
}

// DefaultPoints is the default sampling rate per PDF, the middle of the
// paper's 10-15 range.
const DefaultPoints = 12

// Point returns the degenerate distribution concentrated at x.
func Point(x float64) PDF {
	return PDF{xs: []float64{x}, ps: []float64{1}}
}

// FromNormal discretizes N(mu, sigma^2) into n equal-width bins spanning
// mu +- 3.5 sigma. Each bin is represented by its conditional mean, so the
// discretized mean equals mu exactly; the variance is slightly below
// sigma^2 (quantization), which tests bound.
func FromNormal(mu, sigma float64, n int) PDF {
	if sigma <= 0 {
		return Point(mu)
	}
	if n < 2 {
		n = 2
	}
	const span = 3.5
	lo, hi := -span, span // in sigma units
	width := (hi - lo) / float64(n)
	xs := make([]float64, 0, n)
	ps := make([]float64, 0, n)
	total := normal.Phi(hi) - normal.Phi(lo)
	for i := 0; i < n; i++ {
		a := lo + float64(i)*width
		b := a + width
		mass := (normal.Phi(b) - normal.Phi(a)) / total
		if mass <= 0 {
			continue
		}
		// Conditional mean of a standard normal on (a, b).
		condMean := (normal.Pdf(a) - normal.Pdf(b)) / (normal.Phi(b) - normal.Phi(a))
		xs = append(xs, mu+sigma*condMean)
		ps = append(ps, mass)
	}
	return PDF{xs: xs, ps: ps}
}

// FromSamples builds an n-point PDF from empirical samples (equal-width
// binning, conditional means). Used to convert Monte-Carlo output into a
// comparable PDF. Paths converting many sample vectors should hold a
// Scratch and call its FromSamples, which reuses the binning workspace.
func FromSamples(samples []float64, n int) PDF {
	var s Scratch
	return s.FromSamples(samples, n)
}

// New builds a PDF from raw support/probability slices, validating the
// invariants. The inputs are copied.
func New(xs, ps []float64) (PDF, error) {
	if len(xs) == 0 || len(xs) != len(ps) {
		return PDF{}, fmt.Errorf("dpdf: support/probability length mismatch (%d vs %d)", len(xs), len(ps))
	}
	total := 0.0
	for i := range xs {
		if i > 0 && xs[i] <= xs[i-1] {
			return PDF{}, fmt.Errorf("dpdf: support not strictly ascending at %d", i)
		}
		if ps[i] < 0 {
			return PDF{}, fmt.Errorf("dpdf: negative probability at %d", i)
		}
		total += ps[i]
	}
	if math.Abs(total-1) > 1e-9 {
		return PDF{}, fmt.Errorf("dpdf: probabilities sum to %g, want 1", total)
	}
	return PDF{xs: append([]float64(nil), xs...), ps: append([]float64(nil), ps...)}, nil
}

// Clone returns a copy of p that shares no memory with it, so a PDF
// viewed from an Arena can outlive the arena.
func (p PDF) Clone() PDF {
	return PDF{xs: append([]float64(nil), p.xs...), ps: append([]float64(nil), p.ps...)}
}

// Len returns the number of support points.
func (p PDF) Len() int { return len(p.xs) }

// Support returns copies of the support and probability vectors.
func (p PDF) Support() (xs, ps []float64) {
	return append([]float64(nil), p.xs...), append([]float64(nil), p.ps...)
}

// Mean returns the expected value.
func (p PDF) Mean() float64 {
	m := 0.0
	for i, x := range p.xs {
		m += x * p.ps[i]
	}
	return m
}

// Variance returns the second central moment.
func (p PDF) Variance() float64 {
	m := p.Mean()
	v := 0.0
	for i, x := range p.xs {
		d := x - m
		v += d * d * p.ps[i]
	}
	return v
}

// Sigma returns the standard deviation.
func (p PDF) Sigma() float64 { return math.Sqrt(p.Variance()) }

// Moments returns the (mean, variance) pair as a normal.Moments, the
// interface between FULLSSTA and FASSTA.
func (p PDF) Moments() normal.Moments {
	return normal.Moments{Mean: p.Mean(), Var: p.Variance()}
}

// Equal reports whether p and q are bit-identical: the same support and
// probability vectors under exact float equality. This is the early-
// cutoff predicate of the incremental FULLSSTA engine — the operators
// are deterministic pure functions, so bit-equal inputs reproduce
// bit-equal outputs and an unchanged node proves its whole downstream
// recomputation unchanged. NaN values compare unequal, which errs on
// the side of propagating.
func (p PDF) Equal(q PDF) bool {
	if len(p.xs) != len(q.xs) {
		return false
	}
	for i := range p.xs {
		if p.xs[i] != q.xs[i] || p.ps[i] != q.ps[i] {
			return false
		}
	}
	return true
}

// CDF returns P(X <= t).
func (p PDF) CDF(t float64) float64 {
	c := 0.0
	for i, x := range p.xs {
		if x > t {
			break
		}
		c += p.ps[i]
	}
	return c
}

// Quantile returns the smallest support point x with CDF(x) >= q.
func (p PDF) Quantile(q float64) float64 {
	if q <= 0 {
		return p.xs[0]
	}
	c := 0.0
	for i, x := range p.xs {
		c += p.ps[i]
		if c >= q-1e-12 {
			return x
		}
	}
	return p.xs[len(p.xs)-1]
}

// Min and Max return the support bounds.
func (p PDF) Min() float64 { return p.xs[0] }
func (p PDF) Max() float64 { return p.xs[len(p.xs)-1] }

// Shift returns the PDF translated by dx.
func (p PDF) Shift(dx float64) PDF {
	xs := make([]float64, len(p.xs))
	for i, x := range p.xs {
		xs[i] = x + dx
	}
	return PDF{xs: xs, ps: append([]float64(nil), p.ps...)}
}

// Sum returns the distribution of X+Y for independent X, Y, resampled to
// at most maxPts points. The full n*m convolution is formed and then
// binned; binning uses mass-weighted bin means so the exact relation
// E[X+Y] = E[X]+E[Y] is preserved. The implementation lives on Scratch
// (see scratch.go); hot paths should hold a Scratch and call its methods
// to avoid reallocating the convolution workspace on every operation.
func Sum(a, b PDF, maxPts int) PDF {
	var s Scratch
	return s.Sum(a, b, maxPts)
}

// Max returns the distribution of max(X, Y) for independent X, Y,
// resampled to at most maxPts points. It is computed on the merged
// support via the product of CDFs: F_max(t) = F_X(t) * F_Y(t).
func Max(a, b PDF, maxPts int) PDF {
	var s Scratch
	return s.Max(a, b, maxPts)
}

// MaxN folds Max over a list of PDFs. An empty list yields Point(0).
func MaxN(pdfs []PDF, maxPts int) PDF {
	var s Scratch
	return s.MaxN(pdfs, maxPts)
}

// Resample reduces the PDF to at most n points (equal-width bins with
// mass-weighted means, preserving the overall mean exactly; the support
// is rescaled around the mean to restore the exact pre-binning variance —
// without the rescale, the ~3% variance lost per binning compounds over a
// deep Sum/Max chain into a large sigma underestimate).
func (p PDF) Resample(n int) PDF {
	var s Scratch
	s.wxs = append(s.wxs[:0], p.xs...)
	s.wps = append(s.wps[:0], p.ps...)
	return s.binWeighted(n)
}

// weightedMoments returns the mean and variance of a weighted point set
// whose weights sum to one (up to float drift, which it normalizes).
func weightedMoments(xs, ps []float64) (mean, variance float64) {
	total := 0.0
	for _, p := range ps {
		total += p
	}
	if total <= 0 {
		return 0, 0
	}
	for i := range xs {
		mean += xs[i] * ps[i]
	}
	mean /= total
	for i := range xs {
		d := xs[i] - mean
		variance += d * d * ps[i]
	}
	variance /= total
	return mean, variance
}

// Validate checks the PDF invariants (ascending support, non-negative
// probabilities summing to one).
func (p PDF) Validate() error { return ValidateSupport(p.xs, p.ps) }

// ValidateSupport checks a raw support/mass pair against the PDF
// invariants: equal non-zero lengths, finite strictly ascending support,
// finite non-negative mass summing to one (within 1e-6). It is the
// well-formedness hook shared by PDF.Validate and internal/circuitlint.
func ValidateSupport(xs, ps []float64) error {
	if len(xs) == 0 || len(xs) != len(ps) {
		return fmt.Errorf("dpdf: empty or mismatched PDF")
	}
	total := 0.0
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
			return fmt.Errorf("dpdf: non-finite support value %g at %d", xs[i], i)
		}
		if i > 0 && xs[i] <= xs[i-1] {
			return fmt.Errorf("dpdf: support not ascending at %d", i)
		}
		if math.IsNaN(ps[i]) || math.IsInf(ps[i], 0) {
			return fmt.Errorf("dpdf: non-finite probability %g at %d", ps[i], i)
		}
		if ps[i] < 0 {
			return fmt.Errorf("dpdf: negative probability at %d", i)
		}
		total += ps[i]
	}
	if math.Abs(total-1) > 1e-6 {
		return fmt.Errorf("dpdf: total probability %g", total)
	}
	return nil
}
