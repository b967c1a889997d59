package dpdf

import (
	"math"
	"testing"
)

func TestPDFEqual(t *testing.T) {
	a := FromNormal(10, 2, 8)
	if !a.Equal(a) {
		t.Fatal("PDF must equal itself")
	}
	b := FromNormal(10, 2, 8)
	if !a.Equal(b) {
		t.Fatal("identical constructions must compare equal")
	}
	if a.Equal(FromNormal(10, 2, 9)) {
		t.Fatal("different lengths must compare unequal")
	}
	if a.Equal(FromNormal(10.5, 2, 8)) {
		t.Fatal("different support must compare unequal")
	}
	// NaN anywhere compares unequal, even to itself — the cutoff must
	// fail safe and keep propagating.
	n := PDF{xs: []float64{math.NaN()}, ps: []float64{1}}
	if n.Equal(n) {
		t.Fatal("NaN support must compare unequal to itself")
	}
}

func TestArenaAccessorsAndGuards(t *testing.T) {
	a := NewArena(3, 12)
	if a.Nodes() != 3 || a.Stride() != 12 {
		t.Fatalf("Nodes/Stride = %d/%d, want 3/12", a.Nodes(), a.Stride())
	}
	// stride < 1 falls back to the package default.
	if def := NewArena(1, 0); def.Stride() != DefaultPoints {
		t.Fatalf("default stride = %d, want %d", def.Stride(), DefaultPoints)
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("Set over stride", func() { a.Set(0, FromNormal(0, 1, 30)) })
	var s Scratch
	x := FromNormal(3, 1, 10)
	mustPanic("maxPts over stride", func() { a.SumInto(&s, 0, x, x, 13) })
	mustPanic("maxPts below one", func() { a.MaxNInto(&s, 0, []PDF{x, x}, 0) })
}

func TestValidateSupportRejections(t *testing.T) {
	cases := []struct {
		name   string
		xs, ps []float64
	}{
		{"empty", nil, nil},
		{"mismatched", []float64{1, 2}, []float64{1}},
		{"nan support", []float64{math.NaN()}, []float64{1}},
		{"inf support", []float64{math.Inf(1)}, []float64{1}},
		{"not ascending", []float64{2, 1}, []float64{0.5, 0.5}},
		{"nan mass", []float64{1}, []float64{math.NaN()}},
		{"negative mass", []float64{1, 2}, []float64{1.5, -0.5}},
		{"mass not one", []float64{1, 2}, []float64{0.5, 0.4}},
	}
	for _, tc := range cases {
		if err := ValidateSupport(tc.xs, tc.ps); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if err := ValidateSupport([]float64{1, 2}, []float64{0.25, 0.75}); err != nil {
		t.Errorf("valid support rejected: %v", err)
	}
}
