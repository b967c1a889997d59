package difftest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/synth"
	"repro/internal/variation"
)

// originalDesign builds the paper's starting point for the sizing
// backends: the named Table-1 circuit, mapped and mean-delay-optimized.
func originalDesign(t *testing.T, name string) (*synth.Design, *variation.Model) {
	t.Helper()
	d, vm, err := experiments.NewDesign(name)
	if err != nil {
		t.Fatalf("NewDesign(%s): %v", name, err)
	}
	if err := experiments.Original(d, vm, experiments.Config{Workers: 1}); err != nil {
		t.Fatalf("Original(%s): %v", name, err)
	}
	return d, vm
}

func cloneDesign(d *synth.Design) *synth.Design {
	return &synth.Design{Circuit: d.Circuit.Clone(), Lib: d.Lib}
}

// TestOptimizerPortsBitIdentical pins the interface refactor: running a
// backend through the core.Optimizer registry must produce exactly the
// trajectory of the pre-refactor entry point, on Table-1 circuits, at
// Workers 1 and 4. Any drift in the port — a reordered default, a
// dropped option — shows up as a size-vector or history mismatch here.
func TestOptimizerPortsBitIdentical(t *testing.T) {
	legacy := map[string]func(d *synth.Design, vm *variation.Model, opts core.Options) (*core.Result, []int, error){
		"statgreedy": func(d *synth.Design, vm *variation.Model, opts core.Options) (*core.Result, []int, error) {
			r, err := core.StatisticalGreedy(d, vm, opts)
			return r, d.Circuit.SizeSnapshot(), err
		},
		"meandelay": func(d *synth.Design, vm *variation.Model, opts core.Options) (*core.Result, []int, error) {
			r, err := core.MeanDelayGreedy(d, vm, opts)
			return r, d.Circuit.SizeSnapshot(), err
		},
		"recoverarea": func(d *synth.Design, vm *variation.Model, opts core.Options) (*core.Result, []int, error) {
			// The historical entry point reports only the saved area; the
			// port pins the size vector it leaves behind.
			_, err := core.RecoverArea(d, vm, opts, 0.01)
			return nil, d.Circuit.SizeSnapshot(), err
		},
	}
	for _, circ := range []string{"alu2", "c432"} {
		base, vm := originalDesign(t, circ)
		for name, run := range legacy {
			for _, workers := range []int{1, 4} {
				name, run, workers := name, run, workers
				baseClone := cloneDesign(base)
				t.Run(circ+"/"+name+"/w"+string(rune('0'+workers)), func(t *testing.T) {
					t.Parallel()
					opts := core.Options{Lambda: 9, MaxIters: 8, Workers: workers}
					dOld := cloneDesign(baseClone)
					wantRes, wantSizes, err := run(dOld, vm, opts)
					if err != nil {
						t.Fatalf("legacy %s: %v", name, err)
					}
					o, ok := core.LookupOptimizer(name)
					if !ok {
						t.Fatalf("%s not registered", name)
					}
					dNew := cloneDesign(baseClone)
					gotRes, err := o.Run(dNew, vm, opts)
					if err != nil {
						t.Fatalf("port %s: %v", name, err)
					}
					if err := CompareSizes(dNew.Circuit.SizeSnapshot(), wantSizes); err != nil {
						t.Fatalf("port diverged from legacy %s: %v", name, err)
					}
					if wantRes != nil {
						if err := CompareRuns(gotRes, wantRes); err != nil {
							t.Fatalf("port result diverged from legacy %s: %v", name, err)
						}
					}
				})
			}
		}
	}
}

// TestOptimizerProperties runs every registered backend through the
// invariant oracle at each worker count: cost never worsens (or stays
// within the recovery pass's slack budget), area only shrinks where it
// must, and the reported Final snapshot agrees bit-for-bit with a
// from-scratch re-analysis of the returned design. The "incr" leaf
// names the incremental analyzer every backend runs on.
func TestOptimizerProperties(t *testing.T) {
	base, vm := originalDesign(t, "alu2")
	for _, name := range core.Optimizers() {
		for _, workers := range []int{1, 4} {
			name, workers := name, workers
			d := cloneDesign(base)
			t.Run(name+"/w"+string(rune('0'+workers))+"/incr", func(t *testing.T) {
				t.Parallel()
				opts := core.Options{Lambda: 3, MaxIters: 4, PDFPoints: 8, Workers: workers, Seed: 42}
				if _, err := CheckOptimizer(name, d, vm, opts); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestOptimizerSeededEquivalence pins the determinism contracts on a
// Table-1 circuit, for every backend:
//
//   - a repeated run with identical options is bit-identical;
//   - Workers 1, 2 and 4 are bit-identical: Workers changes speed,
//     never answers.
//
// That the incremental analyzer matches a from-scratch one is pinned in
// internal/core against a reference analyzer, and CheckOptimizer
// re-analyzes every returned design from scratch.
func TestOptimizerSeededEquivalence(t *testing.T) {
	base, vm := originalDesign(t, "alu2")
	run := func(t *testing.T, name string, workers int) (*core.Result, []int) {
		t.Helper()
		d := cloneDesign(base)
		opts := core.Options{Lambda: 9, MaxIters: 6, PDFPoints: 8, Workers: workers, Seed: 7}
		res, err := CheckOptimizer(name, d, vm, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, d.Circuit.SizeSnapshot()
	}
	for _, name := range core.Optimizers() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			refRes, refSizes := run(t, name, 1)

			againRes, againSizes := run(t, name, 1)
			if err := CompareRuns(againRes, refRes); err != nil {
				t.Fatalf("repeat run not deterministic: %v", err)
			}
			if err := CompareSizes(againSizes, refSizes); err != nil {
				t.Fatalf("repeat run not deterministic: %v", err)
			}

			for _, workers := range []int{2, 4} {
				wRes, wSizes := run(t, name, workers)
				if err := CompareRuns(wRes, refRes); err != nil {
					t.Fatalf("workers 1 vs %d diverged: %v", workers, err)
				}
				if err := CompareSizes(wSizes, refSizes); err != nil {
					t.Fatalf("workers 1 vs %d diverged: %v", workers, err)
				}
			}
		})
	}
}

// TestOptimizerOracleCatchesDrift turns the invariant oracle on
// deliberately corrupted results: each tampering a buggy backend could
// plausibly commit must be rejected, so a green property suite means
// the checks have teeth, not just that they ran.
func TestOptimizerOracleCatchesDrift(t *testing.T) {
	if _, err := CheckOptimizer("frobnicate", nil, nil, core.Options{}); err == nil {
		t.Fatal("unknown backend accepted")
	}

	base, vm := originalDesign(t, "alu1")
	d := cloneDesign(base)
	opts := core.Options{Lambda: 3, MaxIters: 3, Workers: 1}
	res, err := CheckOptimizer("statgreedy", d, vm, opts)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func(r *core.Result) *core.Result) {
		t.Helper()
		r := *res
		r.History = append([]core.IterStats(nil), res.History...)
		if err := CheckOptimizerResult("statgreedy", d, vm, opts, mutate(&r)); err == nil {
			t.Errorf("%s: corrupted result passed the oracle", name)
		}
	}
	corrupt("nil result", func(r *core.Result) *core.Result { return nil })
	corrupt("unknown stop reason", func(r *core.Result) *core.Result { r.StoppedBy = "tired"; return r })
	corrupt("history overflow", func(r *core.Result) *core.Result {
		r.History = make([]core.IterStats, r.Iterations+1)
		return r
	})
	corrupt("missing counters", func(r *core.Result) *core.Result { r.Evals = 0; return r })
	corrupt("worsened cost", func(r *core.Result) *core.Result {
		r.Final.Cost = r.Initial.Cost + 1
		return r
	})
	corrupt("drifted final", func(r *core.Result) *core.Result { r.Final.Sigma += 0.5; return r })

	// A design left at the wrong sizing must disagree with the reported
	// Final even when the Result itself is untouched.
	tampered := d.Circuit.SizeSnapshot()
	for i := range tampered {
		if d.Circuit.Gates[i].Fn.IsLogic() && tampered[i] > 0 {
			tampered[i]--
			break
		}
	}
	d.Circuit.RestoreSizes(tampered)
	if err := CheckOptimizerResult("statgreedy", d, vm, opts, res); err == nil {
		t.Error("re-analysis oracle missed a tampered design")
	}

	// The comparison helpers must reject each field drift they pin.
	other := *res
	other.Iterations++
	if err := CompareRuns(&other, res); err == nil {
		t.Error("CompareRuns missed an iteration-count drift")
	}
	if err := CompareSizes([]int{1, 2}, []int{1, 3}); err == nil {
		t.Error("CompareSizes missed a divergent vector")
	}
	if err := CompareSizes([]int{1}, []int{1, 2}); err == nil {
		t.Error("CompareSizes missed a length mismatch")
	}
}
