package normal

import "testing"

// TestDominanceDegenerate pins the zero-variance tie-break: with no
// spread, dominance reduces to comparing means.
func TestDominanceDegenerate(t *testing.T) {
	lo := Moments{Mean: 1}
	hi := Moments{Mean: 2}
	if got := Dominance(hi, lo); got != +1 {
		t.Errorf("Dominance(hi, lo) = %d, want +1", got)
	}
	if got := Dominance(lo, hi); got != -1 {
		t.Errorf("Dominance(lo, hi) = %d, want -1", got)
	}
	same := Moments{Mean: 1}
	if got := Dominance(same, same); got != +1 {
		t.Errorf("Dominance(x, x) = %d, want +1 (d >= 0 wins ties)", got)
	}
}

// TestClarkMaxDeterministic pins the both-deterministic shortcut: the
// max of two zero-variance moments is the larger number.
func TestClarkMaxDeterministic(t *testing.T) {
	a := Moments{Mean: 3}
	b := Moments{Mean: 2}
	if got := MaxExact(a, b); got != a {
		t.Errorf("MaxExact(a, b) = %+v, want %+v", got, a)
	}
	if got := MaxExact(b, a); got != a {
		t.Errorf("MaxExact(b, a) = %+v, want %+v", got, a)
	}
}
