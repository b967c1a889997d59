package repro

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestRunOptionsValidate pins the boundary contract: invalid execution
// options are rejected by every entry point before any work starts, and
// the design is left untouched.
func TestRunOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts RunOptions
		want string // substring of the error, "" = valid
	}{
		{"zero", RunOptions{}, ""},
		{"explicit", RunOptions{Workers: 2, PDFPoints: 15, MaxIters: 3}, ""},
		{"negWorkers", RunOptions{Workers: -1}, "negative worker count"},
		{"negPDFPoints", RunOptions{PDFPoints: -4}, "negative PDF resolution"},
		{"negMaxIters", RunOptions{MaxIters: -7}, "negative iteration cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestEntryPointsRejectInvalidOptions(t *testing.T) {
	d, err := Generate("alu1")
	if err != nil {
		t.Fatal(err)
	}
	bad := RunOptions{Workers: -1}
	nan := math.NaN()
	inf := math.Inf(1)

	if _, err := d.AnalyzeCtx(context.Background(), bad); err == nil {
		t.Error("AnalyzeCtx accepted negative workers")
	}
	if _, err := d.MonteCarloOpts(100, 1, bad); err == nil {
		t.Error("MonteCarloOpts accepted negative workers")
	}
	if _, err := d.MonteCarlo(-5, 1); err == nil {
		t.Error("MonteCarlo accepted negative trial count")
	}
	if _, err := d.Optimize(0, RunOptions{Optimizer: "meandelay", MaxIters: -1}); err == nil {
		t.Error("Optimize(meandelay) accepted negative iteration cap")
	}
	for _, lambda := range []float64{nan, inf, -inf, -3} {
		if _, err := d.Optimize(lambda, RunOptions{MaxIters: 1}); err == nil {
			t.Errorf("Optimize accepted lambda %g", lambda)
		}
		if err := d.SaveDOT(discard{}, lambda); err == nil {
			t.Errorf("SaveDOT accepted lambda %g", lambda)
		}
		if _, err := d.Optimize(lambda, RunOptions{Optimizer: "recoverarea", SlackFrac: 0.01}); err == nil {
			t.Errorf("Optimize(recoverarea) accepted lambda %g", lambda)
		}
	}
	for _, slack := range []float64{nan, inf, -0.5} {
		if _, err := d.Optimize(3, RunOptions{Optimizer: "recoverarea", SlackFrac: slack}); err == nil {
			t.Errorf("Optimize(recoverarea) accepted slack fraction %g", slack)
		}
	}
	for _, budget := range []float64{nan, -1, 0} {
		if _, err := d.OptimizeConstrained(budget); err == nil {
			t.Errorf("OptimizeConstrained accepted mean budget %g", budget)
		}
	}
}

// discard is a no-op writer; rejection must happen before any output.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
