package yield

import (
	"testing"

	"repro/internal/dpdf"
)

func TestPeriodForInverseOfYield(t *testing.T) {
	p := dpdf.FromNormal(100, 10, 15)
	for _, target := range []float64{0.5, 0.9, 0.99} {
		T, err := PeriodFor(p, target)
		if err != nil {
			t.Fatal(err)
		}
		if p.CDF(T) < target-1e-9 {
			t.Errorf("target %g: period %g yields only %g", target, T, p.CDF(T))
		}
	}
}

func TestPeriodForRejectsBadTargets(t *testing.T) {
	p := dpdf.FromNormal(100, 10, 15)
	for _, bad := range []float64{0, -0.5, 1.5} {
		if _, err := PeriodFor(p, bad); err == nil {
			t.Errorf("target %g accepted", bad)
		}
	}
}
