package dpdf

import (
	"math/rand"
	"testing"
)

// flatPDF draws a random PDF for differential testing: mostly
// discretized normals, sometimes degenerate points, sometimes shifted
// far away so the dominance pre-check fires.
func flatPDF(rng *rand.Rand, n int) PDF {
	switch rng.Intn(6) {
	case 0:
		return Point(rng.Float64()*1000 - 500)
	case 1:
		// Far-off support: forces one side of Max to dominate.
		return FromNormal(5000+rng.Float64()*100, 1+rng.Float64()*5, n)
	default:
		return FromNormal(rng.Float64()*500, 1+rng.Float64()*50, n)
	}
}

func TestArenaKernelsBitIdenticalToScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var s, ref Scratch
	ar := NewArena(4, 64)
	for trial := 0; trial < 500; trial++ {
		a := flatPDF(rng, 2+rng.Intn(20))
		b := flatPDF(rng, 2+rng.Intn(20))
		pts := 4 + rng.Intn(20)

		ar.SumInto(&s, 0, a, b, pts)
		if want := ref.Sum(a, b, pts); !equalPDF(ar.PDF(0), want) {
			t.Fatalf("trial %d: SumInto differs from Scratch.Sum", trial)
		}
		ar.MaxInto(&s, 1, a, b, pts)
		if want := ref.Max(a, b, pts); !equalPDF(ar.PDF(1), want) {
			t.Fatalf("trial %d: MaxInto differs from Scratch.Max", trial)
		}

		ops := make([]PDF, 1+rng.Intn(5))
		for i := range ops {
			ops[i] = flatPDF(rng, 2+rng.Intn(15))
		}
		ar.MaxNInto(&s, 2, ops, pts)
		if want := ref.MaxN(ops, pts); !equalPDF(ar.PDF(2), want) {
			t.Fatalf("trial %d: MaxNInto differs from Scratch.MaxN", trial)
		}
	}
}

func TestArenaDominanceEdges(t *testing.T) {
	// Exercise the support-bounds pre-check on exact boundary ties: the
	// shortcut must reproduce the merged-support CDF walk bit-for-bit
	// when one support starts exactly where the other ends, for single
	// points, and in both dominance directions.
	var s, ref Scratch
	ar := NewArena(1, 64)
	lo := mustNew(t, []float64{0, 1, 2}, []float64{0.25, 0.5, 0.25})
	hiTouch := mustNew(t, []float64{2, 3, 4}, []float64{0.5, 0.25, 0.25})
	hiApart := mustNew(t, []float64{10, 11}, []float64{0.5, 0.5})
	cases := [][2]PDF{
		{lo, hiTouch}, {hiTouch, lo},
		{lo, hiApart}, {hiApart, lo},
		{Point(2), lo}, {lo, Point(2)},
		{Point(5), Point(5)},
		{Point(1), Point(7)}, {Point(7), Point(1)},
	}
	for i, tc := range cases {
		for _, pts := range []int{1, 2, 12} {
			ar.MaxInto(&s, 0, tc[0], tc[1], pts)
			if want := ref.Max(tc[0], tc[1], pts); !equalPDF(ar.PDF(0), want) {
				t.Fatalf("case %d pts %d: dominance-edge Max differs", i, pts)
			}
		}
	}
}

func mustNew(t *testing.T, xs, ps []float64) PDF {
	t.Helper()
	p, err := New(xs, ps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestArenaInPlaceKernels(t *testing.T) {
	// dst may be one of the operands: results must match the out-of-place
	// computation.
	rng := rand.New(rand.NewSource(43))
	var s, ref Scratch
	ar := NewArena(3, 32)
	for trial := 0; trial < 200; trial++ {
		a := flatPDF(rng, 2+rng.Intn(12))
		b := flatPDF(rng, 2+rng.Intn(12))
		pts := 4 + rng.Intn(12)

		ar.Set(0, a)
		ar.SumInto(&s, 0, ar.View(0), b, pts)
		if want := ref.Sum(a, b, pts); !equalPDF(ar.PDF(0), want) {
			t.Fatalf("trial %d: in-place SumInto differs", trial)
		}

		ar.Set(1, a)
		ar.MaxInto(&s, 1, ar.View(1), b, pts)
		if want := ref.Max(a, b, pts); !equalPDF(ar.PDF(1), want) {
			t.Fatalf("trial %d: in-place MaxInto differs", trial)
		}

		// The engines' composite step: dst = Sum(MaxN(fanins), delay),
		// with the MaxN result already sitting in dst.
		ar.Set(2, a)
		ar.MaxNInto(&s, 2, []PDF{ar.View(2), b, ar.View(1)}, pts)
		if want := ref.MaxN([]PDF{a, b, ar.PDF(1)}, pts); !equalPDF(ar.PDF(2), want) {
			t.Fatalf("trial %d: in-place MaxNInto differs", trial)
		}
	}
}

func TestArenaViewAndMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ar := NewArena(2, 16)
	for trial := 0; trial < 100; trial++ {
		p := flatPDF(rng, 2+rng.Intn(14))
		ar.Set(0, p)
		if !equalPDF(ar.View(0), p) || !equalPDF(ar.PDF(0), p) {
			t.Fatal("Set/View/PDF round trip differs")
		}
		if !ar.Equal(0, p) {
			t.Fatal("Equal(slot, same) = false")
		}
		if ar.Equal(0, Point(1e9)) {
			t.Fatal("Equal(slot, different) = true")
		}
		m, want := ar.Moments(0), p.Moments()
		if m != want {
			t.Fatalf("Moments differ: %+v vs %+v", m, want)
		}
		if ar.Mean(0) != p.Mean() {
			t.Fatal("Mean differs")
		}
	}
	if ar.Len(1) != 0 {
		t.Fatal("fresh slot not empty")
	}
	ar.SetPoint(1, 7)
	if !equalPDF(ar.View(1), Point(7)) {
		t.Fatal("SetPoint differs from Point")
	}
	ar.Clear(1)
	if ar.Len(1) != 0 {
		t.Fatal("Clear did not empty the slot")
	}
}

func TestArenaKernelsDoNotAllocate(t *testing.T) {
	var s Scratch
	ar := NewArena(4, 12)
	a := FromNormal(100, 10, 12)
	b := FromNormal(120, 15, 12)
	far := FromNormal(500, 5, 12)
	ops := []PDF{a, b, far}
	// Warm the scratch.
	ar.SumInto(&s, 0, a, b, 12)
	ar.MaxNInto(&s, 1, ops, 12)
	if n := testing.AllocsPerRun(100, func() {
		ar.SumInto(&s, 0, a, b, 12)
		ar.MaxInto(&s, 2, a, b, 12)
		ar.MaxNInto(&s, 1, ops, 12)
		_ = ar.View(1)
		_ = ar.Moments(1)
	}); n != 0 {
		t.Fatalf("arena kernels allocate %v per run, want 0", n)
	}
}

func TestScratchFromSamplesAndFromNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var s Scratch
	for trial := 0; trial < 50; trial++ {
		samples := make([]float64, 1+rng.Intn(500))
		for i := range samples {
			samples[i] = rng.NormFloat64()*20 + 300
		}
		n := 1 + rng.Intn(20)
		if got, want := s.FromSamples(samples, n), FromSamples(samples, n); !equalPDF(got, want) {
			t.Fatalf("trial %d: Scratch.FromSamples differs", trial)
		}
		mu, sigma := rng.Float64()*100, rng.Float64()*10
		if got, want := s.FromNormal(mu, sigma, n), FromNormal(mu, sigma, n); !equalPDF(got, want) {
			t.Fatalf("trial %d: Scratch.FromNormal differs", trial)
		}
	}
	if !equalPDF(s.FromSamples(nil, 5), Point(0)) {
		t.Fatal("FromSamples(nil) != Point(0)")
	}
	if !equalPDF(s.FromSamples([]float64{3, 3, 3}, 5), Point(3)) {
		t.Fatal("FromSamples(constant) != Point")
	}
	// The scratch version must not allocate workspace beyond the two
	// result slices (package-level allocates mass+sum per call on top).
	samples := make([]float64, 256)
	for i := range samples {
		samples[i] = float64(i % 17)
	}
	s.FromSamples(samples, 12) // warm
	if n := testing.AllocsPerRun(100, func() { s.FromSamples(samples, 12) }); n > 2 {
		t.Fatalf("Scratch.FromSamples allocates %v per run, want <= 2", n)
	}
}

func TestArenaGrowKeepsSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ar := NewArena(1, 16)
	var want []PDF
	for i := 0; i < 40; i++ {
		ar.Grow(i + 1)
		if ar.Nodes() != i+1 || ar.Len(i) != 0 {
			t.Fatalf("Grow(%d): %d slots, new slot len %d", i+1, ar.Nodes(), ar.Len(i))
		}
		p := flatPDF(rng, 2+rng.Intn(14))
		ar.Set(i, p)
		want = append(want, p)
	}
	ar.Grow(3) // never shrinks
	if ar.Nodes() != 40 {
		t.Fatalf("Grow shrank the arena to %d slots", ar.Nodes())
	}
	for i, p := range want {
		if !equalPDF(ar.View(i), p) {
			t.Fatalf("slot %d changed across Grow", i)
		}
	}
}
