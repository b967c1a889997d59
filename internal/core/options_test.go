package core

import (
	"math"
	"strings"
	"testing"
)

func TestOptionsValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		opts Options
		want string // substring of the error, "" = valid
	}{
		{"zero", Options{}, ""},
		{"paper", Options{Lambda: 9, MaxIters: 50, PDFPoints: 12, TopKPaths: 16}, ""},
		{"negMaxStepMode", Options{MaxStep: -1}, ""}, // documented scan-all mode
		{"nanLambda", Options{Lambda: nan}, "invalid lambda"},
		{"infLambda", Options{Lambda: inf}, "invalid lambda"},
		{"negLambda", Options{Lambda: -3}, "invalid lambda"},
		{"nanTarget", Options{TargetCost: nan}, "non-finite target cost"},
		{"infMinGain", Options{MinGain: inf}, "invalid min gain"},
		{"negMinGain", Options{MinGain: -1e-6}, "invalid min gain"},
		{"negMaxIters", Options{MaxIters: -1}, "negative iteration cap"},
		{"negDepth", Options{SubcktDepth: -2}, "negative subcircuit depth"},
		{"negPoints", Options{PDFPoints: -12}, "negative PDF resolution"},
		{"negPatience", Options{Patience: -1}, "negative patience"},
		{"negPaths", Options{TopKPaths: -4}, "negative path count"},
		{"negWorkers", Options{Workers: -8}, "negative worker count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestOptionsDefaults pins the documented zero-value defaults and that
// explicit values pass through.
func TestOptionsDefaults(t *testing.T) {
	var zero Options
	if zero.maxIters() != 100 || zero.patience() != 8 || zero.minGain() != 1e-6 ||
		zero.topK() != 16 || zero.maxStep() != 1 || zero.areaBudgetFrac() != 0.02 ||
		zero.slackFrac() != 0.01 || zero.checkpointEvery() != 1 {
		t.Fatalf("zero-value defaults drifted: %d %d %g %d %d %g %g %d",
			zero.maxIters(), zero.patience(), zero.minGain(), zero.topK(), zero.maxStep(),
			zero.areaBudgetFrac(), zero.slackFrac(), zero.checkpointEvery())
	}
	set := Options{MaxIters: 7, Patience: 3, MinGain: 0.5, TopKPaths: 4, MaxStep: 2,
		AreaBudgetFrac: 0.1, SlackFrac: 0.2, CheckpointEvery: 5}
	if set.maxIters() != 7 || set.patience() != 3 || set.minGain() != 0.5 ||
		set.topK() != 4 || set.maxStep() != 2 || set.areaBudgetFrac() != 0.1 ||
		set.slackFrac() != 0.2 || set.checkpointEvery() != 5 {
		t.Fatal("explicit option values were not passed through")
	}
	if got := (Options{MaxStep: -1}).maxStep(); got != 0 {
		t.Fatalf("negative MaxStep = %d, want 0 (scan all sizes)", got)
	}
}

func TestEqSizes(t *testing.T) {
	if !eqSizes([]int{1, 2}, []int{1, 2}) {
		t.Error("equal vectors reported different")
	}
	if eqSizes([]int{1, 2}, []int{1, 3}) || eqSizes([]int{1}, []int{1, 2}) {
		t.Error("different vectors reported equal")
	}
}
