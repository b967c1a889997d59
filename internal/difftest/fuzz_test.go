package difftest

import (
	"strings"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ssta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// FuzzIncrementalResize fuzzes (netlist, resize-op stream): any netlist
// the strict parser and the technology mapper accept must survive an
// arbitrary op stream on the incremental FULLSSTA engine without panicking,
// with every step bit-identical to a from-scratch analysis. Netlists
// the load path rejects (the cyclic and undriven lint fixtures below
// seed that side of the corpus) must be rejected before an engine is
// ever built — the same gate the sstad service enforces.
func FuzzIncrementalResize(f *testing.F) {
	valid := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n" +
		"g1 = NAND(a, b)\ng2 = NOT(g1)\ng3 = AND(g1, g2)\ny = OR(g2, g3)\nz = NOT(g3)\n"
	f.Add(valid, []byte{0, 1, 2, 3})
	f.Add(valid, []byte{7, 0, 7, 1, 255, 9})
	f.Add("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", []byte{0})
	// Rejected designs: a combinational cycle and an undriven fanin
	// (the circuitlint fixtures) must never reach the engines.
	f.Add("INPUT(a)\nOUTPUT(y)\ng1 = AND(a, g2)\ng2 = NOT(g1)\ny = NOT(a)\n", []byte{1, 2})
	f.Add("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n", []byte{3})
	f.Add("", []byte(nil))
	f.Fuzz(func(t *testing.T, src string, ops []byte) {
		c, err := benchfmt.Parse(strings.NewReader(src), "fuzz")
		if err != nil {
			return // rejected before any engine can be built
		}
		if c.NumGates() > 512 {
			return // keep per-input cost bounded
		}
		lib := cells.Default90nm()
		d, err := synth.Map(c, lib)
		if err != nil {
			return // unmappable (e.g. constants): also rejected pre-engine
		}
		vm := variation.Default(lib)
		c = d.Circuit // the mapper owns the circuit it bound cells to

		var logic []circuit.GateID
		for id := 0; id < c.NumGates(); id++ {
			if c.Gate(circuit.GateID(id)).Fn.IsLogic() {
				logic = append(logic, circuit.GateID(id))
			}
		}
		if len(logic) == 0 {
			return
		}
		if len(ops) > 48 {
			ops = ops[:48]
		}

		sinc := ssta.NewIncremental(d, vm, ssta.Options{Points: 8})
		for i := 0; i+1 < len(ops); i += 2 {
			g := logic[int(ops[i])%len(logic)]
			size := int(ops[i+1]) % d.Lib.NumSizes(cells.Kind(c.Gate(g).CellRef))
			// Every third op rolls straight back, exercising the journal.
			sinc.Resize(g, size)
			if i%6 == 4 {
				sinc.Rollback()
			}
			if err := CompareSSTA(sinc.Result(), ssta.Analyze(d, vm, ssta.Options{Points: 8})); err != nil {
				t.Fatalf("ssta diverged at op %d: %v\nsrc:\n%s", i, err, src)
			}
		}
	})
}

// FuzzOptimizerInvariants is the cross-optimizer fuzz oracle: no
// registered backend, on any netlist the load path accepts, under any
// fuzzer-chosen (backend, lambda, iteration budget, workers, mode,
// seed) combination, may return a design whose from-scratch re-analysis
// disagrees with its reported Result, worsen its cost metric, or (for
// the recovery pass) grow area — the CheckOptimizer contract.
func FuzzOptimizerInvariants(f *testing.F) {
	valid := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n" +
		"g1 = NAND(a, b)\ng2 = NOT(g1)\ng3 = AND(g1, g2)\ny = OR(g2, g3)\nz = NOT(g3)\n"
	for sel := byte(0); sel < 4; sel++ {
		f.Add(valid, sel, byte(2), byte(1), int64(sel))
	}
	f.Add("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", byte(3), byte(0), byte(0), int64(9))
	f.Add("INPUT(a)\nOUTPUT(y)\ng1 = AND(a, g2)\ng2 = NOT(g1)\ny = NOT(a)\n", byte(0), byte(1), byte(2), int64(0))
	f.Add("", byte(0), byte(0), byte(0), int64(0))
	f.Fuzz(func(t *testing.T, src string, backendSel, lambdaSel, knobs byte, seed int64) {
		c, err := benchfmt.Parse(strings.NewReader(src), "fuzz")
		if err != nil {
			return // rejected before any backend can run
		}
		if c.NumGates() > 256 {
			return // keep per-input cost bounded (backends analyze repeatedly)
		}
		lib := cells.Default90nm()
		d, err := synth.Map(c, lib)
		if err != nil {
			return // unmappable: also rejected pre-backend
		}
		vm := variation.Default(lib)

		names := core.Optimizers()
		name := names[int(backendSel)%len(names)]
		lambda := []float64{0, 3, 9}[int(lambdaSel)%3]
		opts := core.Options{
			Lambda:      lambda,
			MaxIters:    1 + int(knobs&0x03),
			PDFPoints:   8,
			Workers:     1 + 3*int(knobs>>2&0x01),
			Incremental: knobs>>3&0x01 == 0,
			Seed:        seed,
		}
		if _, err := CheckOptimizer(name, d, vm, opts); err != nil {
			t.Fatalf("%v\nsrc:\n%s", err, src)
		}
	})
}
