package core

import (
	"testing"

	"repro/internal/cells"
	"repro/internal/gen"
	"repro/internal/synth"
	"repro/internal/variation"
)

// sizingDesign is a ~26k-gate SEC+ALU+CLA composition, mapped and
// mean-delay sized: the scale at which StatisticalGreedy's whole-circuit
// scoring dominates an iteration.
func sizingDesign(b *testing.B) (*synth.Design, *variation.Model) {
	b.Helper()
	c := gen.Compose("sizing",
		gen.SEC("sec", 1536, true), gen.ALU("alu", 512), gen.CarryLookaheadAdder("cla", 512))
	lib := cells.Default90nm()
	d, err := synth.Map(c, lib)
	if err != nil {
		b.Fatal(err)
	}
	vm := variation.Default(lib)
	if _, err := MeanDelayGreedy(d, vm, Options{}); err != nil {
		b.Fatal(err)
	}
	return d, vm
}

// BenchmarkStatisticalGreedy runs eight StatisticalGreedy iterations
// (lambda 3, default workers) on a fresh copy of the sized design per
// op; the copy is made outside the timer.
func BenchmarkStatisticalGreedy(b *testing.B) {
	base, vm := sizingDesign(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := &synth.Design{Circuit: base.Circuit.Clone(), Lib: base.Lib}
		b.StartTimer()
		if _, err := StatisticalGreedy(d, vm, Options{Lambda: 3, MaxIters: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
