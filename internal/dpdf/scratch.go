package dpdf

import (
	"math"
	"sort"

	"repro/internal/normal"
)

// Scratch holds the reusable intermediate buffers of the Sum/Max kernels.
// The operators form an n*m-point convolution (or a merged-support CDF
// product), sort it, and bin it back down — all of which previously
// allocated fresh slices per call. A Scratch keeps those intermediates
// alive across calls, so the only remaining allocation per operation is
// the returned PDF itself (at most maxPts points, which callers retain).
// The Arena kernels (flat.go) go one step further and write results into
// arena slots through the same cores, allocating nothing at all.
//
// A Scratch is not safe for concurrent use; give each worker goroutine
// its own. The zero value is ready to use. Results are bit-identical to
// the package-level operators — the scratch versions ARE the
// implementation; Sum/Max/MaxN delegate here with a throwaway scratch.
type Scratch struct {
	wxs, wps []float64 // weighted-point workspace awaiting binning
	sx, sp   []float64 // sorted, deduplicated points
	mass     []float64 // per-bin probability mass
	sum      []float64 // per-bin mass-weighted coordinate sum
	merge    []float64 // sorted merged support for sortedMax
	nxs, nps []float64 // TempNormal output, aliased by its return value
	ox, op   []float64 // binWeighted output staging before the PDF copy
	fx, fp   []float64 // MaxNInto fold accumulator (flat.go)
	fn       int       // points in the fold accumulator

	// Standard-normal discretization table for TempNormal: bin masses and
	// conditional means in sigma units depend only on the point count, not
	// on (mu, sigma), so the erf-heavy table is computed once per n and the
	// per-call work collapses to one affine fill. The cached values are the
	// exact floats the inline computation produced, so TempNormal output is
	// bit-identical with or without a warm cache.
	normMass, normMean []float64
	normN              int
}

// NewScratch returns an empty scratch. Buffers grow on first use and are
// then reused.
func NewScratch() *Scratch { return &Scratch{} }

// Sum is the scratch-buffered distribution of X+Y for independent X, Y
// (see the package-level Sum). Only the returned PDF is newly allocated.
func (s *Scratch) Sum(a, b PDF, maxPts int) PDF {
	if a.Len() == 1 {
		return b.Shift(a.xs[0])
	}
	if b.Len() == 1 {
		return a.Shift(b.xs[0])
	}
	s.convolve(a, b)
	return s.binWeighted(maxPts)
}

// convolve fills the weighted-point workspace with the full n*m
// convolution of a and b.
func (s *Scratch) convolve(a, b PDF) {
	s.wxs, s.wps = s.wxs[:0], s.wps[:0]
	for i, xa := range a.xs {
		for j, xb := range b.xs {
			s.wxs = append(s.wxs, xa+xb)
			s.wps = append(s.wps, a.ps[i]*b.ps[j])
		}
	}
}

// Max is the scratch-buffered distribution of max(X, Y) for independent
// X, Y (see the package-level Max).
func (s *Scratch) Max(a, b PDF, maxPts int) PDF {
	s.maxWeighted(a, b)
	return s.binWeighted(maxPts)
}

// maxWeighted fills the weighted-point workspace with the exact point
// set of max(X, Y): the increments of F_X(t)*F_Y(t) over the merged
// support. Both supports are ascending, so the merged support is a
// two-pointer walk: the smaller head is the next point, and every point
// at or below it is consumed from both sides (which also drops
// duplicates, keeping a's copy of a coordinate both supports share).
// When one support lies entirely at or above the other — separated
// distributions, e.g. normals more than ~2.6 sigma apart after
// 3.5-sigma discretization — a support-bounds pre-check routes to
// dominatedMax, which emits the same values bit-for-bit from one walk
// (one bounded pass over each support, so it terminates on any input).
//
// The walk replaced a concatenate-sort-dedup merge and emits the same
// bits, with two exceptions it hands back to that merge: -0 in one
// support meeting +0 in the other, where which zero survives the dedup
// was decided by the (unstable) sort (engine arrivals never hold -0),
// and a NaN coordinate, which compares false against everything, so
// neither side of the walk would ever advance past it.
func (s *Scratch) maxWeighted(a, b PDF) {
	s.wxs, s.wps = s.wxs[:0], s.wps[:0]
	na, nb := a.Len(), b.Len()
	if a.xs[0] >= b.xs[nb-1] {
		s.dominatedMax(a, b)
		return
	}
	if b.xs[0] >= a.xs[na-1] {
		s.dominatedMax(b, a)
		return
	}
	prev := 0.0
	ia, ib := 0, 0
	ca, cb := 0.0, 0.0
	for ia < na || ib < nb {
		var x float64
		if ia == na || (ib < nb && b.xs[ib] < a.xs[ia]) {
			x = b.xs[ib]
		} else {
			x = a.xs[ia]
			if x == 0 && ib < nb && b.xs[ib] == 0 && math.Signbit(x) != math.Signbit(b.xs[ib]) {
				s.sortedMax(a, b)
				return
			}
		}
		if x != x {
			s.sortedMax(a, b)
			return
		}
		for ia < na && a.xs[ia] <= x {
			ca += a.ps[ia]
			ia++
		}
		for ib < nb && b.xs[ib] <= x {
			cb += b.ps[ib]
			ib++
		}
		f := ca * cb
		if mass := f - prev; mass > 0 {
			s.wxs = append(s.wxs, x)
			s.wps = append(s.wps, mass)
		}
		prev = f
	}
}

// sortedMax is maxWeighted's general case over a merged support built
// by sorting the concatenated supports and dropping duplicates. Every
// loop is bounded by the support lengths, so it terminates on any
// input, NaN coordinates included.
func (s *Scratch) sortedMax(a, b PDF) {
	s.wxs, s.wps = s.wxs[:0], s.wps[:0]
	s.merge = append(append(s.merge[:0], a.xs...), b.xs...)
	sort.Float64s(s.merge)
	uniq := s.merge[:1]
	for _, x := range s.merge[1:] {
		if x != uniq[len(uniq)-1] {
			uniq = append(uniq, x)
		}
	}
	prev := 0.0
	ia, ib := 0, 0
	ca, cb := 0.0, 0.0
	for _, x := range uniq {
		for ia < a.Len() && a.xs[ia] <= x {
			ca += a.ps[ia]
			ia++
		}
		for ib < b.Len() && b.xs[ib] <= x {
			cb += b.ps[ib]
			ib++
		}
		f := ca * cb
		if mass := f - prev; mass > 0 {
			s.wxs = append(s.wxs, x)
			s.wps = append(s.wps, mass)
		}
		prev = f
	}
}

// dominatedMax handles Max when hi's support starts at or above lo's
// end. On the merged support every point of lo contributes zero mass
// (hi's CDF is still zero there), and at each point of hi the factor
// from lo is its full (rounded) probability total — so the general loop
// degenerates to a single walk over hi. The arithmetic below replays the
// general loop's operations exactly (the same running sums, the same
// products), so the output is bit-identical, not merely equal in
// distribution.
func (s *Scratch) dominatedMax(hi, lo PDF) {
	clo := 0.0
	for _, p := range lo.ps {
		clo += p
	}
	prev, chi := 0.0, 0.0
	for i, x := range hi.xs {
		chi += hi.ps[i]
		f := chi * clo
		if mass := f - prev; mass > 0 {
			s.wxs = append(s.wxs, x)
			s.wps = append(s.wps, mass)
		}
		prev = f
	}
}

// MaxN folds Max over a list of PDFs. An empty list yields Point(0).
func (s *Scratch) MaxN(pdfs []PDF, maxPts int) PDF {
	if len(pdfs) == 0 {
		return Point(0)
	}
	acc := pdfs[0]
	for _, p := range pdfs[1:] {
		acc = s.Max(acc, p, maxPts)
	}
	return acc
}

// TempNormal discretizes N(mu, sigma^2) exactly like FromNormal but into
// scratch-owned buffers: the returned PDF aliases the scratch and is only
// valid until the next TempNormal call on the same scratch. It exists for
// the one pattern the engines use — build a gate-delay PDF, convolve it
// into an arrival, discard it — where the FromNormal allocation would be
// garbage the moment Sum returns.
func (s *Scratch) TempNormal(mu, sigma float64, n int) PDF {
	if sigma <= 0 {
		s.nxs = append(s.nxs[:0], mu)
		s.nps = append(s.nps[:0], 1)
		return PDF{xs: s.nxs, ps: s.nps}
	}
	if n < 2 {
		n = 2
	}
	if s.normN != n {
		s.normTable(n)
	}
	s.nxs, s.nps = s.nxs[:0], s.nps[:0]
	for i, mass := range s.normMass {
		s.nxs = append(s.nxs, mu+sigma*s.normMean[i])
		s.nps = append(s.nps, mass)
	}
	return PDF{xs: s.nxs, ps: s.nps}
}

// normTable fills the standard-normal bin table for n points: per-bin
// probability mass and conditional mean over mu +- 3.5 sigma, in sigma
// units. The arithmetic is exactly FromNormal's, so scaling the table by
// (mu, sigma) reproduces FromNormal's floats bit for bit.
func (s *Scratch) normTable(n int) {
	const span = 3.5
	lo, hi := -span, span // in sigma units
	width := (hi - lo) / float64(n)
	s.normMass, s.normMean = s.normMass[:0], s.normMean[:0]
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
		s.normMass = append(s.normMass, mass)
		s.normMean = append(s.normMean, condMean)
	}
	s.normN = n
}

// FromNormal is the package-level FromNormal through the scratch's
// workspace: the returned PDF is freshly allocated (callers retain it),
// everything intermediate is reused.
func (s *Scratch) FromNormal(mu, sigma float64, n int) PDF {
	t := s.TempNormal(mu, sigma, n)
	return PDF{
		xs: append(make([]float64, 0, len(t.xs)), t.xs...),
		ps: append(make([]float64, 0, len(t.ps)), t.ps...),
	}
}

// FromSamples is the package-level FromSamples with the per-bin
// mass/sum workspace taken from the scratch instead of freshly
// allocated: Monte-Carlo comparison paths convert many sample vectors
// and previously paid two slice allocations per conversion.
func (s *Scratch) FromSamples(samples []float64, n int) PDF {
	if len(samples) == 0 {
		return Point(0)
	}
	min, max := samples[0], samples[0]
	for _, v := range samples {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min == max {
		return Point(min)
	}
	if n < 1 {
		n = DefaultPoints
	}
	s.growBins(n)
	w := (max - min) / float64(n)
	for _, v := range samples {
		i := binIndex((v-min)/w, n)
		s.mass[i]++
		s.sum[i] += v
	}
	if cap(s.ox) < n {
		s.ox = make([]float64, n)
		s.op = make([]float64, n)
	}
	total := float64(len(samples))
	k := 0
	for i := 0; i < n; i++ {
		if s.mass[i] == 0 {
			continue
		}
		s.ox[k] = s.sum[i] / s.mass[i]
		s.op[k] = s.mass[i] / total
		k++
	}
	return PDF{
		xs: append(make([]float64, 0, k), s.ox[:k]...),
		ps: append(make([]float64, 0, k), s.op[:k]...),
	}
}

// binIndex maps a bin-relative coordinate f = (x-lo)/w to its bin in
// [0, n). For finite, ordered data (f >= 0) it is int(f) clamped to
// n-1. A NaN or negative f, reachable only through non-finite
// coordinates, lands in an end bin instead of indexing out of range
// (int of NaN is platform-defined).
func binIndex(f float64, n int) int {
	if !(f < float64(n-1)) {
		return n - 1
	}
	if f > 0 {
		return int(f)
	}
	return 0
}

// growBins sizes the per-bin mass/sum workspace to n zeroed entries.
func (s *Scratch) growBins(n int) {
	if cap(s.mass) < n {
		s.mass = make([]float64, n)
		s.sum = make([]float64, n)
	}
	s.mass, s.sum = s.mass[:n], s.sum[:n]
	for b := range s.mass {
		s.mass[b], s.sum[b] = 0, 0
	}
}

// binWeighted is binWeightedInto staged through scratch buffers, with
// the result copied into a freshly allocated PDF — the allocating shape
// the Sum/Max wrappers return.
func (s *Scratch) binWeighted(maxPts int) PDF {
	need := maxPts
	if need < DefaultPoints {
		need = DefaultPoints
	}
	if cap(s.ox) < need {
		s.ox = make([]float64, need)
		s.op = make([]float64, need)
	}
	n := s.binWeightedInto(maxPts, s.ox[:need], s.op[:need])
	return PDF{
		xs: append(make([]float64, 0, n), s.ox[:n]...),
		ps: append(make([]float64, 0, n), s.op[:n]...),
	}
}

// binWeightedInto is fromWeighted over the scratch's weighted-point
// workspace (s.wxs/s.wps): merge duplicates and bin down to at most
// maxPts points, preserving the mean exactly and rescaling the support
// to restore the exact pre-binning variance. The result is written into
// dx/dp (len >= maxPts, and >= DefaultPoints when maxPts < 1) and its
// point count returned; nothing is allocated. This is the shared core
// of Scratch.Sum/Max and the Arena kernels.
//
// Points with equal coordinates are merged in workspace order (the sort
// is stable), making the merged mass — and therefore every downstream
// bit — independent of sort internals.
func (s *Scratch) binWeightedInto(maxPts int, dx, dp []float64) int {
	if len(s.wxs) == 0 {
		dx[0], dp[0] = 0, 1
		return 1
	}
	sortPairs(s.wxs, s.wps)
	s.sx, s.sp = s.sx[:0], s.sp[:0]
	for i, x := range s.wxs {
		if len(s.sx) > 0 && x == s.sx[len(s.sx)-1] {
			s.sp[len(s.sp)-1] += s.wps[i]
			continue
		}
		s.sx = append(s.sx, x)
		s.sp = append(s.sp, s.wps[i])
	}
	if maxPts < 1 {
		maxPts = DefaultPoints
	}
	if len(s.sx) <= maxPts {
		n := copy(dx, s.sx)
		copy(dp, s.sp)
		return normalizeInto(dx, dp, n)
	}
	lo, hi := s.sx[0], s.sx[len(s.sx)-1]
	if lo == hi {
		dx[0], dp[0] = lo, 1
		return 1
	}
	w := (hi - lo) / float64(maxPts)
	s.growBins(maxPts)
	for i, x := range s.sx {
		b := binIndex((x-lo)/w, maxPts)
		s.mass[b] += s.sp[i]
		s.sum[b] += x * s.sp[i]
	}
	n := 0
	for b := 0; b < maxPts; b++ {
		if s.mass[b] <= 0 {
			continue
		}
		dx[n] = s.sum[b] / s.mass[b]
		dp[n] = s.mass[b]
		n++
	}
	n = normalizeInto(dx, dp, n)
	// Restore the exact pre-binning variance by rescaling around the mean.
	wantMean, wantVar := weightedMoments(s.sx, s.sp)
	gotVar := sliceVariance(dx[:n], dp[:n])
	if gotVar > 0 && wantVar > 0 {
		k := math.Sqrt(wantVar / gotVar)
		for i := 0; i < n; i++ {
			dx[i] = wantMean + (dx[i]-wantMean)*k
		}
	}
	return n
}

// sortPairs stably sorts the parallel (xs, ps) arrays by x (insertion
// sort: the inputs are small — at most maxPts^2 points — and convolution
// output arrives as ascending runs, which insertion sort exploits).
// Stability fixes the merge order of equal coordinates.
func sortPairs(xs, ps []float64) {
	for i := 1; i < len(xs); i++ {
		x, p := xs[i], ps[i]
		j := i - 1
		for j >= 0 && xs[j] > x {
			xs[j+1], ps[j+1] = xs[j], ps[j]
			j--
		}
		xs[j+1], ps[j+1] = x, p
	}
}

// normalizeInto is normalize over raw slices: rescale dp[:n] to sum
// exactly to one and return the (possibly collapsed-to-Point(0)) length.
func normalizeInto(dx, dp []float64, n int) int {
	total := 0.0
	for _, q := range dp[:n] {
		total += q
	}
	if total <= 0 {
		dx[0], dp[0] = 0, 1
		return 1
	}
	if math.Abs(total-1) > 1e-15 {
		for i := 0; i < n; i++ {
			dp[i] /= total
		}
	}
	return n
}

// sliceMean is PDF.Mean over raw slices (identical arithmetic).
func sliceMean(xs, ps []float64) float64 {
	m := 0.0
	for i, x := range xs {
		m += x * ps[i]
	}
	return m
}

// sliceVariance is PDF.Variance over raw slices (identical arithmetic).
func sliceVariance(xs, ps []float64) float64 {
	m := sliceMean(xs, ps)
	v := 0.0
	for i, x := range xs {
		d := x - m
		v += d * d * ps[i]
	}
	return v
}

// shiftInto writes p translated by delta into dx/dp and returns p's
// length — Shift without the allocation. Safe when dx/dp alias p's own
// storage.
func shiftInto(p PDF, delta float64, dx, dp []float64) int {
	for i, x := range p.xs {
		dx[i] = x + delta
	}
	copy(dp, p.ps)
	return len(p.xs)
}
