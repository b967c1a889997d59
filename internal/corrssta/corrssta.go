// Package corrssta implements the correlation-aware statistical timing
// engine the paper names as the upgrade path for its outer loop (section
// 4.3: the accurate engine "can track correlations due to reconvergent
// paths using Principal Component Analysis [Chang & Sapatnekar, ICCAD
// 2003] or other methods as long as runtime is managed appropriately").
//
// Delays are kept in first-order canonical form
//
//	d = mean + sum_j a_j * G_j + r * R
//
// where the G_j are shared standard-normal factors from a quad-tree
// spatial model (one die-level factor, four quadrant factors, sixteen
// subquadrant factors, ...) and R is an independent residual. Sum adds
// coefficient vectors; Max uses Clark's formulas with the true
// correlation between the operands and re-expresses the result in
// canonical form with the tightness-weighted coefficients.
//
// Because shared factors travel with the arrival times, reconvergent
// fanins are no longer treated as independent — the systematic error of
// the independence-assuming engines (FULLSSTA overestimates the mean and
// underestimates the sigma of reconvergent circuits) largely disappears,
// which the tests demonstrate against a correlated Monte Carlo.
package corrssta

import (
	"math"

	"repro/internal/circuit"
	"repro/internal/normal"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// Placement assigns each gate a position in the unit square. The timing
// engine only uses it to decide which spatial factors a gate shares.
type Placement struct {
	X, Y []float64 // indexed by GateID, in [0, 1)
}

// LevelizedPlacement builds a synthetic placement from circuit structure:
// x is the normalized logic level (inputs left, outputs right), y the
// normalized position within the level. It is a stand-in for real
// placement data, which the paper's pre-layout flow does not have either.
func LevelizedPlacement(c *circuit.Circuit) Placement {
	lv, depth := c.Levels()
	if depth == 0 {
		depth = 1
	}
	perLevel := make(map[int32]int)
	idx := make([]int, c.NumGates())
	for _, id := range c.MustTopoOrder() {
		idx[id] = perLevel[lv[id]]
		perLevel[lv[id]]++
	}
	p := Placement{X: make([]float64, c.NumGates()), Y: make([]float64, c.NumGates())}
	for i := range p.X {
		p.X[i] = (float64(lv[i]) + 0.5) / float64(depth+1)
		n := perLevel[lv[i]]
		if n == 0 {
			n = 1
		}
		p.Y[i] = (float64(idx[i]) + 0.5) / float64(n)
	}
	return p
}

// Options configures the spatial correlation structure.
type Options struct {
	// QuadLevels is the depth of the quad-tree: level 0 is one die-wide
	// factor, level k adds 4^k region factors. 0 means 3 (1+4+16 = 21
	// shared factors).
	QuadLevels int
	// Share is the fraction of each gate's delay VARIANCE carried by the
	// shared spatial factors (split evenly across quad-tree levels); the
	// rest is gate-independent. 0 (or any value <= 0, NaN or ±Inf)
	// means 0.5; finite values above 1 mean 1.
	Share float64
}

func (o Options) quadLevels() int {
	if o.QuadLevels <= 0 {
		return 3
	}
	return o.QuadLevels
}

func (o Options) share() float64 {
	if !(o.Share > 0) || math.IsInf(o.Share, 1) {
		return 0.5
	}
	if o.Share > 1 {
		return 1
	}
	return o.Share
}

// NumFactors returns the shared-factor count for the options.
func (o Options) NumFactors() int {
	n := 0
	for k := 0; k < o.quadLevels(); k++ {
		n += 1 << uint(2*k)
	}
	return n
}

// factorsAt returns the indices of the factors covering position (x, y),
// one per quad-tree level.
func (o Options) factorsAt(x, y float64) []int {
	idx := make([]int, 0, o.quadLevels())
	base := 0
	for k := 0; k < o.quadLevels(); k++ {
		side := 1 << uint(k)
		cx := int(x * float64(side))
		cy := int(y * float64(side))
		if cx >= side {
			cx = side - 1
		}
		if cy >= side {
			cy = side - 1
		}
		idx = append(idx, base+cy*side+cx)
		base += side * side
	}
	return idx
}

// Canon is a first-order canonical delay/arrival form.
type Canon struct {
	Mean float64
	A    []float64 // coefficients on the shared factors
	R    float64   // sigma of the independent residual
}

// Var returns the total variance of the form.
func (c Canon) Var() float64 {
	v := c.R * c.R
	for _, a := range c.A {
		v += a * a
	}
	return v
}

// Sigma returns the total standard deviation.
func (c Canon) Sigma() float64 { return math.Sqrt(c.Var()) }

// add returns the canonical form of the sum (residuals independent).
func (c Canon) add(o Canon) Canon {
	a := make([]float64, len(c.A))
	for i := range a {
		a[i] = c.A[i] + o.A[i]
	}
	return Canon{Mean: c.Mean + o.Mean, A: a, R: math.Hypot(c.R, o.R)}
}

// cov returns the covariance between two forms (shared factors only).
func (c Canon) cov(o Canon) float64 {
	v := 0.0
	for i := range c.A {
		v += c.A[i] * o.A[i]
	}
	return v
}

// maxCanon computes the canonical form of max(X, Y) using Clark's
// moments with the true correlation and tightness-weighted coefficients.
func maxCanon(x, y Canon) Canon {
	vx, vy := x.Var(), y.Var()
	cxy := x.cov(y)
	a2 := vx + vy - 2*cxy
	if a2 <= 1e-18 {
		// Fully correlated identical spreads: max is the larger mean.
		if x.Mean >= y.Mean {
			return x
		}
		return y
	}
	a := math.Sqrt(a2)
	alpha := (x.Mean - y.Mean) / a
	t := normal.Phi(alpha) // tightness P(X > Y)
	ph := normal.Pdf(alpha)

	mean := x.Mean*t + y.Mean*(1-t) + a*ph
	nu2 := (x.Mean*x.Mean+vx)*t + (y.Mean*y.Mean+vy)*(1-t) + (x.Mean+y.Mean)*a*ph
	variance := nu2 - mean*mean
	if variance < 0 {
		variance = 0
	}

	co := make([]float64, len(x.A))
	shared := 0.0
	for i := range co {
		co[i] = t*x.A[i] + (1-t)*y.A[i]
		shared += co[i] * co[i]
	}
	resid := variance - shared
	if resid < 0 {
		// Shared part exceeds Clark variance (approximation corner):
		// rescale the coefficients to fit.
		scale := math.Sqrt(variance / shared)
		for i := range co {
			co[i] *= scale
		}
		resid = 0
	}
	return Canon{Mean: mean, A: co, R: math.Sqrt(resid)}
}

// Result is one correlation-aware analysis.
type Result struct {
	STA     *sta.Result
	Node    []Canon // arrival canonical form per gate
	Circuit Canon   // max over primary outputs
	Mean    float64
	Sigma   float64
	Opts    Options
	Place   Placement
}

// Analyze runs the canonical-form SSTA over the design. Gate-delay
// sigmas come from the same variation model as the other engines; Share
// of each gate's variance is carried by its location's spatial factors.
func Analyze(d *synth.Design, vm *variation.Model, opts Options) *Result {
	c := d.Circuit
	nominal := sta.Analyze(d)
	place := LevelizedPlacement(c)
	nf := opts.NumFactors()
	share := opts.share()
	perLevel := share / float64(opts.quadLevels())

	r := &Result{STA: nominal, Node: make([]Canon, c.NumGates()), Opts: opts, Place: place}
	zero := Canon{A: make([]float64, nf)}
	for _, id := range c.MustTopoOrder() {
		g := c.Gate(id)
		if g.Fn == circuit.Input {
			in := zero
			in.Mean = nominal.Arrival[id]
			r.Node[id] = in
			continue
		}
		arr := zero
		for i, f := range g.Fanin {
			if i == 0 {
				arr = r.Node[f]
				continue
			}
			arr = maxCanon(arr, r.Node[f])
		}
		mean := nominal.Delay[id]
		sigma := vm.Sigma(d.Cell(id), mean)
		delay := Canon{Mean: mean, A: make([]float64, nf), R: sigma * math.Sqrt(1-share)}
		sigPer := sigma * math.Sqrt(perLevel)
		for _, fi := range opts.factorsAt(place.X[id], place.Y[id]) {
			delay.A[fi] = sigPer
		}
		r.Node[id] = arr.add(delay)
	}
	circ := zero
	for i, po := range c.Outputs {
		if i == 0 {
			circ = r.Node[po]
			continue
		}
		circ = maxCanon(circ, r.Node[po])
	}
	r.Circuit = circ
	r.Mean = circ.Mean
	r.Sigma = circ.Sigma()
	return r
}
