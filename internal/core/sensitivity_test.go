package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
)

func TestSensitivitySizerImprovesCost(t *testing.T) {
	c, err := gen.ISCASLike("alu2")
	if err != nil {
		t.Fatal(err)
	}
	d, vm := original(t, c)
	res, err := SensitivitySizer(d, vm, Options{Lambda: 9, MaxIters: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Cost > res.Initial.Cost {
		t.Fatalf("sensitivity sizing worsened cost: %g -> %g", res.Initial.Cost, res.Final.Cost)
	}
	if res.Final.Cost >= res.Initial.Cost {
		t.Fatalf("sensitivity sizing made no progress on alu2: cost stayed %g", res.Final.Cost)
	}
	if res.Evals <= 0 || res.NodeEvals <= 0 {
		t.Fatalf("work counters not reported: evals=%d nodeEvals=%d", res.Evals, res.NodeEvals)
	}
	if len(res.History) == 0 || res.Iterations == 0 {
		t.Fatalf("empty trajectory: %+v", res)
	}
}

// The batched what-if pass is bit-exact at any worker count, so the
// sensitivity backend's answer must not depend on Workers at all.
func TestSensitivitySizerWorkerIndependent(t *testing.T) {
	c, err := gen.ISCASLike("alu2")
	if err != nil {
		t.Fatal(err)
	}
	d, vm := original(t, c)
	run := func(workers int) (*Result, []int) {
		dd := cloneDesign(d)
		r, err := SensitivitySizer(dd, vm, Options{
			Lambda: 9, MaxIters: 10, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r, dd.Circuit.SizeSnapshot()
	}
	r1, s1 := run(1)
	r4, s4 := run(4)
	if !sizesEqual(s1, s4) {
		t.Fatal("sensitivity sizing depends on the worker count")
	}
	if r1.Final != r4.Final || r1.Iterations != r4.Iterations {
		t.Fatalf("results differ across worker counts: %+v vs %+v", r1.Final, r4.Final)
	}
}

// Seeded tie-breaking must be deterministic: the same seed retraces the
// identical run, and the seed only permutes equal-score moves (so any
// seed still satisfies the improvement invariants, checked elsewhere).
func TestSensitivitySizerSeedDeterministic(t *testing.T) {
	c, err := gen.ISCASLike("alu1")
	if err != nil {
		t.Fatal(err)
	}
	d, vm := original(t, c)
	run := func(seed int64) []int {
		dd := cloneDesign(d)
		if _, err := SensitivitySizer(dd, vm, Options{
			Lambda: 3, MaxIters: 8, Seed: seed,
		}); err != nil {
			t.Fatal(err)
		}
		return dd.Circuit.SizeSnapshot()
	}
	if !sizesEqual(run(42), run(42)) {
		t.Fatal("same seed produced different sizings")
	}
}

func TestSensitivitySizerResumeBitExact(t *testing.T) {
	c, err := gen.ISCASLike("alu2")
	if err != nil {
		t.Fatal(err)
	}
	d, vm := original(t, c)
	baseSizes := d.Circuit.SizeSnapshot()
	opts := Options{Lambda: 9, MaxIters: 12}

	col := &collector{}
	ref := cloneDesign(d)
	refOpts := opts
	refOpts.Checkpoint = col.take
	refRes, err := SensitivitySizer(ref, vm, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	refSizes := ref.Circuit.SizeSnapshot()
	if len(col.cps) < 3 {
		t.Fatalf("only %d checkpoints emitted over %d iterations", len(col.cps), refRes.Iterations)
	}
	for _, cp := range col.cps {
		if cp.Op != "sensitivity" || len(cp.Sizes) != len(baseSizes) {
			t.Fatalf("malformed checkpoint: %+v", cp)
		}
	}

	for _, crashAfter := range []int{1, 3, len(col.cps)} {
		cp := col.at(t, crashAfter)
		resumed := cloneDesign(d)
		resOpts := opts
		rt := roundTrip(t, cp)
		resOpts.Resume = &rt
		resRes, err := SensitivitySizer(resumed, vm, resOpts)
		if err != nil {
			t.Fatalf("resume from iter %d: %v", cp.Iter, err)
		}
		if got := resumed.Circuit.SizeSnapshot(); !sizesEqual(got, refSizes) {
			t.Fatalf("resume from iter %d: sizing diverged from uninterrupted run", cp.Iter)
		}
		if resRes.Final != refRes.Final {
			t.Fatalf("resume from iter %d: final %+v != reference %+v", cp.Iter, resRes.Final, refRes.Final)
		}
		if resRes.Initial != refRes.Initial || resRes.Iterations != refRes.Iterations {
			t.Fatalf("resume from iter %d: trajectory diverged", cp.Iter)
		}
	}
}

func TestSensitivitySizerRejectsCancelledContext(t *testing.T) {
	c, err := gen.ISCASLike("alu1")
	if err != nil {
		t.Fatal(err)
	}
	d, vm := setup(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := d.Circuit.SizeSnapshot()
	if _, err := SensitivitySizer(d, vm, Options{Lambda: 3, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !sizesEqual(before, d.Circuit.SizeSnapshot()) {
		t.Fatal("cancelled-at-entry run still resized gates")
	}
}

func TestSensitivitySizerStopsWithinOneIterationOfCancel(t *testing.T) {
	c, err := gen.ISCASLike("alu1")
	if err != nil {
		t.Fatal(err)
	}
	d, vm := setup(t, c)
	ctx := &pollCountingCtx{Context: context.Background(), cancelAfter: 1}
	res, err := SensitivitySizer(d, vm, Options{Lambda: 3, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (res=%v)", err, res)
	}
	if got := ctx.polls.Load(); got != 2 {
		t.Fatalf("optimizer polled the context %d times; want 2", got)
	}
}

func TestSensitivitySizerValidatesOptions(t *testing.T) {
	c, err := gen.ISCASLike("alu1")
	if err != nil {
		t.Fatal(err)
	}
	d, vm := setup(t, c)
	for _, opts := range []Options{
		{Lambda: -1},
		{Lambda: 3, Workers: -1},
	} {
		if _, err := SensitivitySizer(d, vm, opts); err == nil {
			t.Fatalf("invalid options accepted: %+v", opts)
		}
	}
}

func TestOptimizerRegistry(t *testing.T) {
	names := Optimizers()
	want := []string{"meandelay", "recoverarea", "sensitivity", "statgreedy"}
	if len(names) != len(want) {
		t.Fatalf("registry has %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registry has %v, want %v (sorted)", names, want)
		}
	}
	// Empty name resolves to the default backend.
	o, ok := LookupOptimizer("")
	if !ok || o.Name() != DefaultOptimizer {
		t.Fatalf("empty lookup resolved to %v, %v", o, ok)
	}
	if _, ok := LookupOptimizer("no-such-backend"); ok {
		t.Fatal("unknown backend name resolved")
	}
}

func TestOptimizerBackendsRunnable(t *testing.T) {
	// Every registered backend must complete a tiny run through the
	// interface without error; bit-identity against the direct calls is
	// pinned in internal/difftest.
	c, err := gen.ISCASLike("alu1")
	if err != nil {
		t.Fatal(err)
	}
	d, vm := original(t, c)
	for _, name := range Optimizers() {
		o, ok := LookupOptimizer(name)
		if !ok {
			t.Fatalf("registry lost %q", name)
		}
		dd := cloneDesign(d)
		res, err := o.Run(dd, vm, Options{Lambda: 3, MaxIters: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res == nil || res.Final.Area <= 0 {
			t.Fatalf("%s: degenerate result %+v", name, res)
		}
	}
}
