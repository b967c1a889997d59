package montecarlo

import (
	"math"
	"testing"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/sta"
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

func TestRejectsNonPositiveSamples(t *testing.T) {
	d, vm := setup(t, gen.ParityTree("p", 4))
	if _, err := Analyze(d, vm, 0, 1); err == nil {
		t.Fatal("expected error for n=0")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	d, vm := setup(t, gen.ParityTree("p", 8))
	a, err := Analyze(d, vm, 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(d, vm, 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean != b.Mean || a.Sigma != b.Sigma {
		t.Fatal("same seed produced different results")
	}
	c, err := Analyze(d, vm, 500, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean == c.Mean {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestMeanNearNominal(t *testing.T) {
	d, vm := setup(t, gen.RippleCarryAdder("rca", 8))
	nominal := sta.Analyze(d)
	r, err := Analyze(d, vm, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// E[max of RVs] >= max of means; and within 50% of nominal.
	if r.Mean < nominal.MaxArrival*0.98 {
		t.Errorf("MC mean %g far below nominal %g", r.Mean, nominal.MaxArrival)
	}
	if r.Mean > nominal.MaxArrival*1.5 {
		t.Errorf("MC mean %g unreasonably above nominal %g", r.Mean, nominal.MaxArrival)
	}
}

func TestSamplesSorted(t *testing.T) {
	d, vm := setup(t, gen.ALU("alu", 3))
	r, err := Analyze(d, vm, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(r.Samples); i++ {
		if r.Samples[i] < r.Samples[i-1] {
			t.Fatal("samples not sorted")
		}
	}
}

func TestPDFMatchesSampleMoments(t *testing.T) {
	d, vm := setup(t, gen.ParityTree("p", 12))
	r, err := Analyze(d, vm, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := r.PDF(15)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Mean()-r.Mean) > 0.01*r.Mean {
		t.Errorf("PDF mean %g vs sample mean %g", p.Mean(), r.Mean)
	}
	if math.Abs(p.Sigma()-r.Sigma) > 0.1*r.Sigma {
		t.Errorf("PDF sigma %g vs sample sigma %g", p.Sigma(), r.Sigma)
	}
}

func TestMoreVariationMoreSigma(t *testing.T) {
	lib := cells.Default90nm()
	d, err := synth.Map(gen.RippleCarryAdder("rca", 6), lib)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := Analyze(d, variation.New(lib, 0.05, 0.05), 5000, 9)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Analyze(d, variation.New(lib, 0.3, 0.3), 5000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if hi.Sigma <= lo.Sigma {
		t.Errorf("sigma did not grow with variation coefficients: %g vs %g", lo.Sigma, hi.Sigma)
	}
}

func TestShardCountInvariantSamples(t *testing.T) {
	// The satellite guarantee: for a fixed seed the full sorted sample set
	// is bit-identical no matter how many workers shard the trials.
	d, vm := setup(t, gen.ALU("alu", 4))
	ref, err := AnalyzeOpts(d, vm, Options{Trials: 3000, Seed: 77, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		r, err := AnalyzeOpts(d, vm, Options{Trials: 3000, Seed: 77, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if r.Mean != ref.Mean || r.Sigma != ref.Sigma {
			t.Errorf("workers=%d: moments (%v, %v) differ from serial (%v, %v)",
				workers, r.Mean, r.Sigma, ref.Mean, ref.Sigma)
		}
		for i := range ref.Samples {
			if r.Samples[i] != ref.Samples[i] {
				t.Fatalf("workers=%d: sample %d differs: %v vs %v",
					workers, i, r.Samples[i], ref.Samples[i])
			}
		}
	}
}

func TestDefaultWorkersMatchSerial(t *testing.T) {
	d, vm := setup(t, gen.ParityTree("p", 10))
	ref, err := AnalyzeOpts(d, vm, Options{Trials: 1000, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Analyze(d, vm, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Samples {
		if def.Samples[i] != ref.Samples[i] {
			t.Fatalf("default-worker sample %d differs from serial", i)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	d, vm := setup(t, gen.ParityTree("p", 4))
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"zeroTrials", Options{}},
		{"negTrials", Options{Trials: -100, Seed: 1}},
		{"negWorkers", Options{Trials: 100, Seed: 1, Workers: -2}},
	} {
		if _, err := AnalyzeOpts(d, vm, tc.opts); err == nil {
			t.Errorf("%s: AnalyzeOpts accepted %+v", tc.name, tc.opts)
		}
	}
}

// TestSampleRangeShardMergeBitExact is the cluster layer's load-bearing
// invariant stated as a local property: any partition of [0, n) into
// contiguous ranges, sampled independently and concatenated in order,
// reproduces the single-run sample sequence element for element, and
// folding the concatenation through FromSamples reproduces AnalyzeOpts'
// Mean/Sigma bit for bit.
func TestSampleRangeShardMergeBitExact(t *testing.T) {
	d, vm := setup(t, gen.RippleCarryAdder("rca", 8))
	const n = 1000
	opts := Options{Trials: n, Seed: 77, Workers: 2}

	ref, err := AnalyzeOpts(d, vm, opts)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SampleRange(d, vm, opts, 0, n)
	if err != nil {
		t.Fatal(err)
	}

	// Deliberately uneven cuts, including an empty shard.
	cuts := []int{0, 137, 137, 500, 999, n}
	var merged []float64
	for i := 0; i+1 < len(cuts); i++ {
		shard, err := SampleRange(d, vm, opts, cuts[i], cuts[i+1])
		if err != nil {
			t.Fatalf("shard [%d,%d): %v", cuts[i], cuts[i+1], err)
		}
		if len(shard) != cuts[i+1]-cuts[i] {
			t.Fatalf("shard [%d,%d) has %d samples", cuts[i], cuts[i+1], len(shard))
		}
		merged = append(merged, shard...)
	}
	for i := range full {
		if merged[i] != full[i] {
			t.Fatalf("sample %d differs after shard merge: %v vs %v", i, merged[i], full[i])
		}
	}

	folded, err := FromSamples(merged)
	if err != nil {
		t.Fatal(err)
	}
	if folded.Mean != ref.Mean || folded.Sigma != ref.Sigma {
		t.Fatalf("folded moments (%v, %v) differ from AnalyzeOpts (%v, %v)",
			folded.Mean, folded.Sigma, ref.Mean, ref.Sigma)
	}
	for i := range ref.Samples {
		if folded.Samples[i] != ref.Samples[i] {
			t.Fatalf("sorted sample %d differs after fold", i)
		}
	}
}

func TestSampleRangeRejectsBadRange(t *testing.T) {
	d, vm := setup(t, gen.ParityTree("p", 4))
	if _, err := SampleRange(d, vm, Options{Seed: 1, Workers: -1}, 0, 2); err == nil {
		t.Error("SampleRange accepted negative workers")
	}
	for _, tc := range [][2]int{{-1, 5}, {10, 3}} {
		if _, err := SampleRange(d, vm, Options{Seed: 1}, tc[0], tc[1]); err == nil {
			t.Errorf("SampleRange accepted range [%d, %d)", tc[0], tc[1])
		}
	}
}

func TestFromSamplesRejectsEmpty(t *testing.T) {
	if _, err := FromSamples(nil); err == nil {
		t.Fatal("FromSamples accepted an empty sample set")
	}
}

// BenchmarkSampleRange times the per-trial walk on a ~50k-gate mapped
// random netlist, serially: large enough that the netlist does not fit
// in cache, which is where the flat view pays.
func BenchmarkSampleRange(b *testing.B) {
	lib := cells.Default90nm()
	d, err := synth.Map(gen.RandomDAG("dag40k", 256, 40000, 128, 1), lib)
	if err != nil {
		b.Fatal(err)
	}
	vm := variation.Default(lib)
	const trials = 50
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SampleRange(d, vm, Options{Seed: int64(i), Workers: 1}, 0, trials); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trials*d.Circuit.NumGates()), "ns/gate-trial")
}
