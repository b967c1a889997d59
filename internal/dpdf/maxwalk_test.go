package dpdf

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refKernel is a frozen copy of the Sum/Max cores as they stood before
// the Max merge became a two-pointer walk: the supports were
// concatenated, sorted with sort.Float64s and deduplicated. It is the
// reference oracle that pins the walk bit for bit; do not "fix" it.
type refKernel struct {
	wxs, wps []float64
	sx, sp   []float64
	mass     []float64
	sum      []float64
	merge    []float64
}

func (s *refKernel) convolve(a, b PDF) {
	s.wxs, s.wps = s.wxs[:0], s.wps[:0]
	for i, xa := range a.xs {
		for j, xb := range b.xs {
			s.wxs = append(s.wxs, xa+xb)
			s.wps = append(s.wps, a.ps[i]*b.ps[j])
		}
	}
}

func (s *refKernel) maxWeighted(a, b PDF) {
	s.wxs, s.wps = s.wxs[:0], s.wps[:0]
	if a.xs[0] >= b.xs[b.Len()-1] {
		s.dominatedMax(a, b)
		return
	}
	if b.xs[0] >= a.xs[a.Len()-1] {
		s.dominatedMax(b, a)
		return
	}
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

func (s *refKernel) dominatedMax(hi, lo PDF) {
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

func refSortPairs(xs, ps []float64) {
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

func (s *refKernel) growBins(n int) {
	if cap(s.mass) < n {
		s.mass = make([]float64, n)
		s.sum = make([]float64, n)
	}
	s.mass, s.sum = s.mass[:n], s.sum[:n]
	for b := range s.mass {
		s.mass[b], s.sum[b] = 0, 0
	}
}

func (s *refKernel) binWeightedInto(maxPts int, dx, dp []float64) int {
	if len(s.wxs) == 0 {
		dx[0], dp[0] = 0, 1
		return 1
	}
	refSortPairs(s.wxs, s.wps)
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
		b := int((x - lo) / w)
		if b >= maxPts {
			b = maxPts - 1
		}
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

// maxOp and sumOp run the frozen cores into fresh output slices.
func (s *refKernel) maxOp(a, b PDF, maxPts int) ([]float64, []float64) {
	s.maxWeighted(a, b)
	return s.bin(maxPts)
}

func (s *refKernel) sumOp(a, b PDF, maxPts int) ([]float64, []float64) {
	s.convolve(a, b)
	return s.bin(maxPts)
}

func (s *refKernel) bin(maxPts int) ([]float64, []float64) {
	dx, dp := make([]float64, maxPts), make([]float64, maxPts)
	n := s.binWeightedInto(maxPts, dx, dp)
	return dx[:n], dp[:n]
}

// walkPDF draws one operand for the merge-walk oracle from a mix of
// shapes: discretized normals, Point operands, and coarse integer grids
// whose coordinates collide across operands (with zero drawn as -0 or
// +0). Supports are strictly ascending, as every PDF's is.
func walkPDF(rng *rand.Rand) PDF {
	n := 1 + rng.Intn(16)
	switch rng.Intn(4) {
	case 0:
		return FromNormal(rng.Float64()*40-20, 0.1+rng.Float64()*10, n)
	case 1:
		x := float64(rng.Intn(9) - 4)
		if x == 0 && rng.Intn(2) == 0 {
			x = math.Copysign(0, -1)
		}
		return Point(x)
	default:
		lo := rng.Intn(12) - 8
		if rng.Intn(5) == 0 {
			lo += 40 // far apart: the dominated paths
		}
		xs := make([]float64, 0, n)
		for x := lo; len(xs) < n; x += 1 + rng.Intn(2) {
			xs = append(xs, float64(x))
		}
		for i := range xs {
			if xs[i] == 0 && rng.Intn(2) == 0 {
				xs[i] = math.Copysign(0, -1)
			}
		}
		ps := make([]float64, n)
		total := 0.0
		for i := range ps {
			ps[i] = rng.Float64()
			if rng.Intn(8) == 0 {
				ps[i] = 0
			}
			total += ps[i]
		}
		if total == 0 {
			ps[0], total = 1, 1
		}
		for i := range ps {
			ps[i] /= total
		}
		return PDF{xs: xs, ps: ps}
	}
}

// sameBits compares an operator's output with the oracle's point by
// point on Float64bits, so -0 vs +0 and any last-ulp drift count.
func sameBits(got PDF, wx, wp []float64) bool {
	if got.Len() != len(wx) {
		return false
	}
	for i := range wx {
		if math.Float64bits(got.xs[i]) != math.Float64bits(wx[i]) ||
			math.Float64bits(got.ps[i]) != math.Float64bits(wp[i]) {
			return false
		}
	}
	return true
}

// checkAgainstRef runs Max (and Sum) through the scratch and arena
// kernels and the frozen oracle.
func checkAgainstRef(t testing.TB, s *Scratch, ref *refKernel, ar *Arena, a, b PDF, pts int) {
	t.Helper()
	wx, wp := ref.maxOp(a, b, pts)
	if got := s.Max(a, b, pts); !sameBits(got, wx, wp) {
		t.Fatalf("Max(%v/%v, %v/%v, %d) = %v/%v, oracle %v/%v", a.xs, a.ps, b.xs, b.ps, pts, got.xs, got.ps, wx, wp)
	}
	ar.MaxInto(s, 0, a, b, pts)
	if !sameBits(ar.View(0), wx, wp) {
		t.Fatalf("MaxInto(%v/%v, %v/%v, %d) differs from the oracle", a.xs, a.ps, b.xs, b.ps, pts)
	}
	sx, sp := ref.sumOp(a, b, pts)
	if a.Len() > 1 && b.Len() > 1 {
		if got := s.Sum(a, b, pts); !sameBits(got, sx, sp) {
			t.Fatalf("Sum(%v/%v, %v/%v, %d) differs from the oracle", a.xs, a.ps, b.xs, b.ps, pts)
		}
	}
}

// TestMaxMergeWalkMatchesFrozenSort pins the two-pointer Max merge to
// the sort-and-dedup merge it replaced, bit for bit, over 120k seeded
// operand pairs.
func TestMaxMergeWalkMatchesFrozenSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	var s Scratch
	var ref refKernel
	ar := NewArena(1, 16)
	pairs := 120000
	if testing.Short() {
		pairs = 20000
	}
	for i := 0; i < pairs; i++ {
		a, b := walkPDF(rng), walkPDF(rng)
		checkAgainstRef(t, &s, &ref, ar, a, b, 1+rng.Intn(16))
	}
}

// FuzzMaxMergeWalk drives the same oracle comparison from fuzzed seeds.
// A pts byte of 128 or more poisons the operands with NaN/±Inf
// coordinates; such pairs must only make every kernel return.
func FuzzMaxMergeWalk(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, 1 << 40} {
		f.Add(seed, uint8(12))
	}
	for _, seed := range []int64{0, 1, 42, 1 << 40} {
		f.Add(seed, uint8(128+12))
	}
	var s Scratch
	var ref refKernel
	ar := NewArena(1, 16)
	f.Fuzz(func(t *testing.T, seed int64, pts uint8) {
		rng := rand.New(rand.NewSource(seed))
		a, b := walkPDF(rng), walkPDF(rng)
		if pts >= 128 {
			runKernels(t, poison(rng, a), poison(rng, b), 1+int(pts)%16)
			return
		}
		checkAgainstRef(t, &s, &ref, ar, a, b, 1+int(pts)%16)
	})
}
