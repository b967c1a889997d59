package dpdf

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// Non-finite coordinates have no place in a PDF's ascending support, but
// a corrupt library or netlist can still put them there. The kernels
// must then return — with whatever values — rather than spin or panic:
// a NaN once made the Max merge walk loop forever and the binning step
// index out of range.

// mustReturn runs f on its own goroutine and fails the test if f panics
// or has not returned within a generous bound.
func mustReturn(t testing.TB, name string, f func()) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	select {
	case p := <-done:
		if p != nil {
			t.Fatalf("%s panicked: %v", name, p)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", name)
	}
}

// runKernels drives every Sum/Max kernel shape over one operand pair:
// the allocating and scratch operators, the arena kernels, and the
// MaxN folds with a finite third operand.
func runKernels(t testing.TB, a, b PDF, pts int) {
	t.Helper()
	third := FromNormal(50, 5, 12)
	kernels := []struct {
		name string
		run  func(s *Scratch, ar *Arena)
	}{
		{"Max", func(s *Scratch, _ *Arena) { s.Max(a, b, pts) }},
		{"Sum", func(s *Scratch, _ *Arena) { s.Sum(a, b, pts) }},
		{"MaxN", func(s *Scratch, _ *Arena) { s.MaxN([]PDF{a, b, third}, pts) }},
		{"package Max", func(*Scratch, *Arena) { Max(a, b, pts) }},
		{"package Sum", func(*Scratch, *Arena) { Sum(a, b, pts) }},
		{"package MaxN", func(*Scratch, *Arena) { MaxN([]PDF{third, a, b}, pts) }},
		{"MaxInto", func(s *Scratch, ar *Arena) { ar.MaxInto(s, 0, a, b, pts) }},
		{"SumInto", func(s *Scratch, ar *Arena) { ar.SumInto(s, 0, a, b, pts) }},
		{"MaxNInto", func(s *Scratch, ar *Arena) { ar.MaxNInto(s, 0, []PDF{a, third, b}, pts) }},
	}
	for _, k := range kernels {
		mustReturn(t, k.name, func() { k.run(new(Scratch), NewArena(1, 16)) })
	}
}

func TestKernelsReturnOnNonFiniteOperands(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	finite := FromNormal(100, 10, 12)
	midNaN := FromNormal(100, 10, 12)
	midNaN.xs[5] = nan
	topInf := FromNormal(100, 10, 12)
	topInf.xs[11] = inf
	operands := []struct {
		name string
		p    PDF
	}{
		{"normal(NaN)", FromNormal(nan, 10, 12)},
		{"normal(+Inf)", FromNormal(inf, 10, 12)},
		{"normal(-Inf)", FromNormal(-inf, 10, 12)},
		{"normal(sigma NaN)", FromNormal(100, nan, 12)},
		{"NaN inside support", midNaN},
		{"+Inf top point", topInf},
		{"Point(NaN)", Point(nan)},
		{"Point(+Inf)", Point(inf)},
	}
	for _, op := range operands {
		for _, pts := range []int{4, 12} {
			runKernels(t, op.p, finite, pts)
			runKernels(t, finite, op.p, pts)
			runKernels(t, op.p, op.p, pts)
		}
	}
	// Mixed non-finite pairs: +Inf against -Inf makes NaN sums.
	runKernels(t, FromNormal(inf, 10, 12), FromNormal(-inf, 10, 12), 12)
	runKernels(t, midNaN, topInf, 12)
	// Sample binning shares the bin-index guard.
	mustReturn(t, "FromSamples", func() { FromSamples([]float64{1, nan, 3, inf}, 4) })
	mustReturn(t, "Scratch.FromSamples", func() { new(Scratch).FromSamples([]float64{nan, 1, 2}, 4) })
}

// poison copies p and, depending on the draw, replaces one coordinate
// or every coordinate with NaN, +Inf or -Inf, or leaves p as it is, so
// poisoned operands also meet clean ones.
func poison(rng *rand.Rand, p PDF) PDF {
	q := PDF{xs: append([]float64(nil), p.xs...), ps: append([]float64(nil), p.ps...)}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
	switch rng.Intn(3) {
	case 0:
		q.xs[rng.Intn(len(q.xs))] = bad
	case 1:
		for i := range q.xs {
			q.xs[i] = bad
		}
	}
	return q
}
