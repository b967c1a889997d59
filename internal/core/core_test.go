package core

import (
	"testing"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logicsim"
	"repro/internal/ssta"
	"repro/internal/synth"
	"repro/internal/variation"
)

func setup(t *testing.T, c *circuit.Circuit) (*synth.Design, *variation.Model) {
	t.Helper()
	lib := cells.Default90nm()
	d, err := synth.Map(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	return d, variation.Default(lib)
}

// original prepares the paper's starting point: a mean-delay-optimized
// design.
func original(t *testing.T, c *circuit.Circuit) (*synth.Design, *variation.Model) {
	t.Helper()
	d, vm := setup(t, c)
	if _, err := MeanDelayGreedy(d, vm, Options{}); err != nil {
		t.Fatal(err)
	}
	return d, vm
}

func TestMeanDelayGreedyImprovesMean(t *testing.T) {
	d, vm := setup(t, gen.ALU("alu", 8))
	r, err := MeanDelayGreedy(d, vm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Final.Mean >= r.Initial.Mean {
		t.Fatalf("mean did not improve: %g -> %g", r.Initial.Mean, r.Final.Mean)
	}
	if r.Final.Area <= r.Initial.Area {
		t.Fatalf("area did not grow while speeding up: %g -> %g", r.Initial.Area, r.Final.Area)
	}
	if r.Iterations < 2 {
		t.Error("suspiciously few iterations")
	}
}

func TestStatisticalGreedyReducesSigma(t *testing.T) {
	for _, name := range []string{"alu2", "c432"} {
		c, err := gen.ISCASLike(name)
		if err != nil {
			t.Fatal(err)
		}
		d, vm := original(t, c)
		r, err := StatisticalGreedy(d, vm, Options{Lambda: 9})
		if err != nil {
			t.Fatal(err)
		}
		if r.Final.Sigma >= r.Initial.Sigma {
			t.Errorf("%s: sigma not reduced: %g -> %g", name, r.Initial.Sigma, r.Final.Sigma)
		}
		// The paper's trade-off: area grows, mean may grow modestly.
		if r.Final.Area < r.Initial.Area {
			t.Errorf("%s: area shrank during variance optimization", name)
		}
		if r.Final.Mean > 1.5*r.Initial.Mean {
			t.Errorf("%s: mean blew up: %g -> %g", name, r.Initial.Mean, r.Final.Mean)
		}
	}
}

func TestStatisticalGreedyNeverWorsensCost(t *testing.T) {
	// The best-seen snapshot is restored, so the final cost can never
	// exceed the initial cost.
	d, vm := original(t, gen.ParityTree("par", 32))
	for _, lambda := range []float64{0, 3, 9} {
		r, err := StatisticalGreedy(d, vm, Options{Lambda: lambda, MaxIters: 10})
		if err != nil {
			t.Fatal(err)
		}
		if r.Final.Cost > r.Initial.Cost+1e-9 {
			t.Errorf("lambda=%g: final cost %g worse than initial %g", lambda, r.Final.Cost, r.Initial.Cost)
		}
	}
}

func TestLambdaContinuationReducesSigmaMonotonically(t *testing.T) {
	// Independent greedy runs at different lambdas land on different
	// local optima and need not be ordered; warm-starting lambda=9 from
	// the lambda=3 result (the Table 1 protocol) guarantees the sigma
	// never regresses as the weight ratchets up.
	c, err := gen.ISCASLike("alu2")
	if err != nil {
		t.Fatal(err)
	}
	d, vm := original(t, c)
	r3, err := StatisticalGreedy(d, vm, Options{Lambda: 3})
	if err != nil {
		t.Fatal(err)
	}
	r9, err := StatisticalGreedy(d, vm, Options{Lambda: 9})
	if err != nil {
		t.Fatal(err)
	}
	if r9.Final.Sigma > r3.Final.Sigma*1.02 {
		t.Errorf("continued lambda=9 sigma %g above lambda=3 sigma %g", r9.Final.Sigma, r3.Final.Sigma)
	}
}

func TestOptimizationPreservesFunction(t *testing.T) {
	// Sizing must never touch logic: the optimized circuit is the same
	// netlist, so function is trivially preserved — verify anyway through
	// simulation against the original generic circuit.
	c := gen.ALU("alu", 4)
	d, vm := setup(t, c)
	if _, err := MeanDelayGreedy(d, vm, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := StatisticalGreedy(d, vm, Options{Lambda: 3, MaxIters: 10}); err != nil {
		t.Fatal(err)
	}
	res, err := logicsim.CheckEquivalence(c, d.Circuit, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("optimization changed circuit function")
	}
}

func TestHistoryRecorded(t *testing.T) {
	d, vm := original(t, gen.Comparator("cmp", 8))
	r, err := StatisticalGreedy(d, vm, Options{Lambda: 3, MaxIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.History) == 0 {
		t.Fatal("no history recorded")
	}
	for i, h := range r.History {
		if h.Iter != i || h.PathLen <= 0 {
			t.Fatalf("bad history entry %d: %+v", i, h)
		}
	}
}

func TestRecoverAreaSavesWithoutCostBlowup(t *testing.T) {
	d, vm := original(t, gen.ALU("alu", 8))
	if _, err := StatisticalGreedy(d, vm, Options{Lambda: 3}); err != nil {
		t.Fatal(err)
	}
	costBefore := ssta.Analyze(d, vm, ssta.Options{}).Cost(d, 3)
	r, err := RecoverArea(d, vm, Options{Lambda: 3, SlackFrac: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	saved := r.Initial.Area - r.Final.Area
	if saved < 0 {
		t.Fatalf("area recovery increased area by %g", -saved)
	}
	costAfter := ssta.Analyze(d, vm, ssta.Options{}).Cost(d, 3)
	if costAfter > costBefore*1.011 {
		t.Fatalf("area recovery blew the cost budget: %g -> %g", costBefore, costAfter)
	}
}

func TestRecoverAreaRejectsNegativeSlack(t *testing.T) {
	d, vm := setup(t, gen.ParityTree("p", 4))
	if _, err := RecoverArea(d, vm, Options{Lambda: 3, SlackFrac: -0.1}); err == nil {
		t.Fatal("expected error")
	}
}

func TestDeterministicRepeatability(t *testing.T) {
	run := func() Snapshot {
		c, err := gen.ISCASLike("alu2")
		if err != nil {
			t.Fatal(err)
		}
		d, vm := original(t, c)
		r, err := StatisticalGreedy(d, vm, Options{Lambda: 3})
		if err != nil {
			t.Fatal(err)
		}
		return r.Final
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("optimizer not deterministic: %+v vs %+v", a, b)
	}
}

// TestStatisticalGreedyParallelScoring pins Workers as a pure speed
// knob: the level-parallel repairs and what-if passes at Workers 4 must
// reproduce the serial run exactly — Result and sizing — and still
// reduce sigma versus the mean-optimized start.
func TestStatisticalGreedyParallelScoring(t *testing.T) {
	c, err := gen.ISCASLike("c432")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (*Result, []int) {
		d, vm := original(t, c.Clone())
		r, err := StatisticalGreedy(d, vm, Options{Lambda: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return r, d.Circuit.SizeSnapshot()
	}
	serial, serialSizes := run(1)
	if serial.Final.Sigma >= serial.Initial.Sigma {
		t.Fatalf("optimizer did not reduce sigma: %g -> %g",
			serial.Initial.Sigma, serial.Final.Sigma)
	}
	par, parSizes := run(4)
	requireEqualSizes(t, serialSizes, parSizes)
	requireEqualResults(t, serial, par)
}
