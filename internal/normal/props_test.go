package normal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominanceAntisymmetry(t *testing.T) {
	prop := func(m1, m2, v1, v2 float64) bool {
		a := Moments{Mean: math.Mod(m1, 500), Var: math.Abs(math.Mod(v1, 300))}
		b := Moments{Mean: math.Mod(m2, 500), Var: math.Abs(math.Mod(v2, 300))}
		da, db := Dominance(a, b), Dominance(b, a)
		if da == +1 && db != -1 {
			return false
		}
		if da == -1 && db != +1 {
			return false
		}
		if da == 0 && db != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Max of a variable with itself (independent copy) exceeds it in mean and
// shrinks in variance.
func TestMaxSelfProperty(t *testing.T) {
	prop := func(mRaw, vRaw float64) bool {
		m := Moments{Mean: math.Mod(mRaw, 300), Var: 1 + math.Abs(math.Mod(vRaw, 200))}
		r := MaxExact(m, m)
		return r.Mean > m.Mean && r.Var < m.Var
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Monotonicity: raising one operand's mean never lowers the max's mean.
func TestMaxMonotoneInMean(t *testing.T) {
	prop := func(seed int64, bump float64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Moments{Mean: rng.Float64() * 200, Var: 1 + rng.Float64()*100}
		b := Moments{Mean: rng.Float64() * 200, Var: 1 + rng.Float64()*100}
		d := math.Abs(math.Mod(bump, 50))
		m0 := MaxExact(a, b)
		a.Mean += d
		m1 := MaxExact(a, b)
		return m1.Mean >= m0.Mean-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
