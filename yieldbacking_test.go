package repro

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/ssta"
	"repro/internal/yield"
)

// requireYieldsMatch asserts a's NominalDelay and yield answers equal an
// eager FULLSSTA result, bit for bit.
func requireYieldsMatch(t *testing.T, ctx string, a *Analysis, want *ssta.Result) {
	t.Helper()
	if a.NominalDelay != want.STA.MaxArrival {
		t.Fatalf("%s: NominalDelay %v, want %v", ctx, a.NominalDelay, want.STA.MaxArrival)
	}
	for _, T := range []float64{want.Mean - want.Sigma, want.Mean, want.Mean + 2*want.Sigma} {
		if got, w := a.Yield(T), want.Yield(T); got != w {
			t.Fatalf("%s: Yield(%v) = %v, want %v", ctx, T, got, w)
		}
	}
	for _, q := range []float64{0.9, 0.99} {
		got, err := a.PeriodForYield(q)
		if err != nil {
			t.Fatalf("%s: PeriodForYield(%v): %v", ctx, q, err)
		}
		w, err := yield.PeriodFor(want.CircuitPDF, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Fatalf("%s: PeriodForYield(%v) = %v, want %v", ctx, q, got, w)
		}
	}
}

// TestMonteCarloYieldsMatchEagerFULLSSTA pins the lazily built yield
// backing of both Monte-Carlo doors to an eager FULLSSTA pass with the
// same options on the same sizes.
func TestMonteCarloYieldsMatchEagerFULLSSTA(t *testing.T) {
	for _, name := range []string{"alu2", "c432", "c7552"} {
		d, err := Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []RunOptions{{Workers: 1}, {Workers: 2, PDFPoints: 8}} {
			want := ssta.Analyze(d.d, d.vm, opts.ssta())
			mc, err := d.MonteCarloOpts(200, 3, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireYieldsMatch(t, name+" MonteCarloOpts", mc, want)
			samples, err := d.MonteCarloShard(3, 0, 200, opts)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := d.MonteCarloFromSamples(samples, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireYieldsMatch(t, name+" MonteCarloFromSamples", fs, want)
		}
	}
}

// TestMonteCarloYieldsAfterResize checks that a yield query made after
// the design was optimized answers for the sizes the Monte Carlo ran
// on, and leaves the optimized sizes in place.
func TestMonteCarloYieldsAfterResize(t *testing.T) {
	d, err := Generate("alu2")
	if err != nil {
		t.Fatal(err)
	}
	want := ssta.Analyze(d.d, d.vm, ssta.Options{})
	before := d.Sizes()
	mc, err := d.MonteCarloOpts(200, 5, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := d.MonteCarloShard(5, 0, 200, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := d.MonteCarloFromSamples(samples, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.OptimizeStatistical(9); err != nil {
		t.Fatal(err)
	}
	after := d.Sizes()
	if slices.Equal(before, after) {
		t.Fatal("optimization changed no size")
	}
	requireYieldsMatch(t, "MonteCarloOpts", mc, want)
	requireYieldsMatch(t, "MonteCarloFromSamples", fs, want)
	if !slices.Equal(d.Sizes(), after) {
		t.Fatal("yield query changed the design's sizes")
	}
}

// TestMonteCarloYieldConcurrent has eight goroutines race on the first
// yield query of one Analysis; run it under -race.
func TestMonteCarloYieldConcurrent(t *testing.T) {
	d, err := Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := d.MonteCarloOpts(100, 1, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref := ssta.Analyze(d.d, d.vm, ssta.Options{})
	T := ref.Mean
	got := make([]float64, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = mc.Yield(T)
		}(i)
	}
	wg.Wait()
	want := ref.Yield(T)
	for i, y := range got {
		if y != want {
			t.Fatalf("goroutine %d: Yield = %v, want %v", i, y, want)
		}
	}
}

// TestMonteCarloBackingIsLazy checks that a Monte-Carlo Analysis holds
// no FULLSSTA result until its first yield query, and that an eager
// Analysis holds one from the start.
func TestMonteCarloBackingIsLazy(t *testing.T) {
	d, err := Generate("alu2")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := d.MonteCarloOpts(100, 1, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mc.backing.pdf != nil {
		t.Fatal("Monte-Carlo Analysis holds a FULLSSTA result before any yield query")
	}
	if _, err := mc.PeriodForYield(0.5); err != nil {
		t.Fatal(err)
	}
	if mc.backing.pdf == nil || mc.backing.build != nil {
		t.Fatal("first yield query did not build and keep the FULLSSTA result")
	}
	if a := d.Analyze(); a.backing.pdf == nil {
		t.Fatal("Analyze holds no FULLSSTA result")
	}
}
