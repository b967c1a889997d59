package core

import (
	"fmt"
	"testing"

	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// The incremental analyzers must be invisible to the optimizers: every
// run must produce the exact sizing vector and the exact Result (all
// floats bit-identical) of the same loop driven by a from-scratch
// reference analyzer, on the paper's benchmarks, at the serial and a
// parallel worker count. Timing fields and work counters are excluded
// by construction. Because the incremental engine updates one shared
// Result in place while the reference hands out a fresh one per
// refresh, a loop that reads a result after a later refresh has
// retargeted it diverges here.

// refStatAnalyzer is the reference FULLSSTA analyzer: every refresh and
// every applied change list is a fresh ssta.Analyze of the current
// sizes, and every what-if candidate is applied, analyzed and restored.
// Nothing is memoized or shared.
func refStatAnalyzer(d *synth.Design, vm *variation.Model, opts Options) *analyzer {
	a := &analyzer{}
	a.applyFn = func(changes []ssta.SizeChange) *ssta.Result {
		setSizes(d, changes)
		return ssta.Analyze(d, vm, opts.sstaOpts())
	}
	a.whatIfFn = func(cands [][]ssta.SizeChange, lambda float64) []float64 {
		base := d.Circuit.SizeSnapshot()
		costs := make([]float64, len(cands))
		for i, ch := range cands {
			costs[i] = a.applyFn(ch).Cost(d, lambda)
			d.Circuit.RestoreSizes(base)
		}
		return costs
	}
	return a
}

// setSizes sets every listed gate to its size, in order, in the circuit
// alone: the from-scratch form of a change list.
func setSizes(d *synth.Design, changes []ssta.SizeChange) {
	for _, ch := range changes {
		d.Circuit.Gate(ch.Gate).SizeIdx = ch.Size
	}
}

// refDetAnalyzer is the reference deterministic analyzer: a fresh
// sta.Analyze per refresh and per applied change list.
func refDetAnalyzer(d *synth.Design) *analyzer {
	return &analyzer{applyFn: func(changes []ssta.SizeChange) *ssta.Result {
		setSizes(d, changes)
		return &ssta.Result{STA: sta.Analyze(d)}
	}}
}

// statAnalyzer picks the reference or the production FULLSSTA analyzer.
func statAnalyzer(d *synth.Design, vm *variation.Model, opts Options, ref bool) *analyzer {
	if ref {
		return refStatAnalyzer(d, vm, opts)
	}
	return newStatAnalyzer(d, vm, opts)
}

func newOriginal(t *testing.T, name string) (*synth.Design, *variation.Model) {
	t.Helper()
	return original(t, mustISCAS(t, name))
}

func requireEqualResults(t *testing.T, want, got *Result) {
	t.Helper()
	if want.Initial != got.Initial {
		t.Fatalf("Initial differs: want %+v, got %+v", want.Initial, got.Initial)
	}
	if want.Final != got.Final {
		t.Fatalf("Final differs: want %+v, got %+v", want.Final, got.Final)
	}
	if want.Iterations != got.Iterations || want.StoppedBy != got.StoppedBy {
		t.Fatalf("trajectory differs: want (%d, %s), got (%d, %s)",
			want.Iterations, want.StoppedBy, got.Iterations, got.StoppedBy)
	}
	if len(want.History) != len(got.History) {
		t.Fatalf("history length differs: want %d, got %d", len(want.History), len(got.History))
	}
	for i := range want.History {
		if want.History[i] != got.History[i] {
			t.Fatalf("history[%d] differs:\nwant %+v\ngot  %+v", i, want.History[i], got.History[i])
		}
	}
}

func requireEqualSizes(t *testing.T, want, got []int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("size vector length differs: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("sizing diverged at gate %d: want %d, got %d", i, want[i], got[i])
		}
	}
}

// equivalent runs one optimizer loop twice from identical starts, over
// the incremental analyzer and over the reference, and demands the same
// Result and sizing.
func equivalent(t *testing.T, name string, run func(d *synth.Design, vm *variation.Model, ref bool) *Result) {
	t.Helper()
	dRef, vm := newOriginal(t, name)
	dInc := &synth.Design{Circuit: dRef.Circuit.Clone(), Lib: dRef.Lib}
	rRef := run(dRef, vm, true)
	rInc := run(dInc, vm, false)
	requireEqualSizes(t, dRef.Circuit.SizeSnapshot(), dInc.Circuit.SizeSnapshot())
	requireEqualResults(t, rRef, rInc)
}

func TestStatisticalGreedyIncrementalEquivalence(t *testing.T) {
	for _, name := range []string{"c432", "alu3"} {
		for _, workers := range []int{1, 4} {
			name, workers := name, workers
			t.Run(fmt.Sprintf("%s/workers%d", name, workers), func(t *testing.T) {
				t.Parallel()
				opts := Options{Lambda: 9, MaxIters: 12, Workers: workers}
				equivalent(t, name, func(d *synth.Design, vm *variation.Model, ref bool) *Result {
					r, err := statisticalGreedy(d, vm, opts, statAnalyzer(d, vm, opts, ref))
					if err != nil {
						t.Fatal(err)
					}
					if !ref && r.AnalysisTime <= 0 {
						t.Error("incremental run reported no analysis time")
					}
					return r
				})
			})
		}
	}
}

func TestMeanDelayGreedyIncrementalEquivalence(t *testing.T) {
	for _, name := range []string{"c432", "alu3"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			run := func(ref bool) (*Result, []int) {
				d, vm := setup(t, mustISCAS(t, name))
				az := newDetAnalyzer(d)
				if ref {
					az = refDetAnalyzer(d)
				}
				r, err := meanDelayGreedy(d, vm, Options{}, az)
				if err != nil {
					t.Fatal(err)
				}
				return r, d.Circuit.SizeSnapshot()
			}
			rRef, sRef := run(true)
			rInc, sInc := run(false)
			requireEqualSizes(t, sRef, sInc)
			requireEqualResults(t, rRef, rInc)
		})
	}
}

func TestRecoverAreaIncrementalEquivalence(t *testing.T) {
	opts := Options{Lambda: 3, SlackFrac: 0.01}
	saved := map[bool]float64{}
	equivalent(t, "c432", func(d *synth.Design, vm *variation.Model, ref bool) *Result {
		if _, err := StatisticalGreedy(d, vm, Options{Lambda: 3, MaxIters: 6}); err != nil {
			t.Fatal(err)
		}
		r, err := recoverArea(d, vm, opts, statAnalyzer(d, vm, opts, ref))
		if err != nil {
			t.Fatal(err)
		}
		saved[ref] = r.Initial.Area - r.Final.Area
		return r
	})
	if saved[true] != saved[false] {
		t.Fatalf("area saved differs: reference %g, incremental %g", saved[true], saved[false])
	}
}

func TestSensitivitySizerIncrementalEquivalence(t *testing.T) {
	opts := Options{Lambda: 9, MaxIters: 6, Seed: 7}
	equivalent(t, "alu2", func(d *synth.Design, vm *variation.Model, ref bool) *Result {
		r, err := sensitivitySizer(d, vm, opts, statAnalyzer(d, vm, opts, ref))
		if err != nil {
			t.Fatal(err)
		}
		return r
	})
}
