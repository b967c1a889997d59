package core

import (
	"cmp"
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
		{"paper", Options{Lambda: 9, MaxIters: 50, PDFPoints: 12, SubcktDepth: 2}, ""},
		{"nanLambda", Options{Lambda: nan}, "invalid lambda"},
		{"infLambda", Options{Lambda: inf}, "invalid lambda"},
		{"negLambda", Options{Lambda: -3}, "invalid lambda"},
		{"negMaxIters", Options{MaxIters: -1}, "negative iteration cap"},
		{"negDepth", Options{SubcktDepth: -2}, "negative subcircuit depth"},
		{"negPoints", Options{PDFPoints: -12}, "negative PDF resolution"},
		{"negWorkers", Options{Workers: -8}, "negative worker count"},
		{"nanSlack", Options{SlackFrac: nan}, "invalid slack fraction"},
		{"infSlack", Options{SlackFrac: inf}, "invalid slack fraction"},
		{"negSlack", Options{SlackFrac: -0.01}, "invalid slack fraction"},
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

// TestOptionsDefaults pins the documented zero-value defaults, that
// explicit values pass through, and the fixed tuning constants.
func TestOptionsDefaults(t *testing.T) {
	if got := (Options{}).maxIters(); got != 100 {
		t.Fatalf("zero-value MaxIters = %d, want 100", got)
	}
	if got := (Options{MaxIters: 7}).maxIters(); got != 7 {
		t.Fatalf("explicit MaxIters 7 = %d", got)
	}
	if got := (Options{}).slackFrac(); got != 0.01 {
		t.Fatalf("zero-value SlackFrac = %g, want 0.01", got)
	}
	if got := (Options{SlackFrac: 0.003}).slackFrac(); got != 0.003 {
		t.Fatalf("explicit SlackFrac 0.003 = %g", got)
	}
	if patience != 8 || minGain != 1e-6 || topKPaths != 16 || maxStep != 1 ||
		areaBudgetFrac != 0.02 {
		t.Fatal("fixed optimizer tuning drifted")
	}
}

// TestOptimizerTable pins the backend table's contract: names sorted and
// unique, the empty name resolving to the default, and each entry
// reporting its own name.
func TestOptimizerTable(t *testing.T) {
	names := Optimizers()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("backend table not sorted and unique: %v", names)
		}
	}
	for _, n := range append(names, "") {
		o, ok := LookupOptimizer(n)
		if !ok {
			t.Fatalf("%q not found", n)
		}
		if want := cmp.Or(n, DefaultOptimizer); o.Name() != want {
			t.Fatalf("LookupOptimizer(%q).Name() = %q, want %q", n, o.Name(), want)
		}
	}
	if _, ok := LookupOptimizer("frobnicate"); ok {
		t.Fatal("unknown backend found")
	}
}
