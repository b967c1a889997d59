package ssta

import (
	"testing"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/dpdf"
	"repro/internal/gen"
	"repro/internal/synth"
	"repro/internal/variation"
)

// TestParallelBitExact is the tentpole equivalence guarantee: the
// level-parallel engine must reproduce the serial reference (the
// heap-PDF oracle) bit-for-bit —
// every node's arrival PDF, every moment pair, and the circuit PDF — for
// any worker count. Anything short of exact equality would make analysis
// results depend on the host's core count.
func TestParallelBitExact(t *testing.T) {
	for _, name := range []string{"c432", "c6288"} {
		c, err := gen.ISCASLike(name)
		if err != nil {
			t.Fatal(err)
		}
		lib := cells.Default90nm()
		d, err := synth.Map(c, lib)
		if err != nil {
			t.Fatal(err)
		}
		vm := variation.Default(lib)

		serial := oracle(d, vm, dpdf.DefaultPoints)
		for _, workers := range []int{1, 2, 8} {
			par := Analyze(d, vm, Options{Workers: workers})
			if par.Mean != serial.Mean || par.Sigma != serial.Sigma {
				t.Errorf("%s workers=%d: circuit moments differ: (%v, %v) vs (%v, %v)",
					name, workers, par.Mean, par.Sigma, serial.Mean, serial.Sigma)
			}
			for id := range serial.Node {
				if par.Node[id] != serial.Node[id] {
					t.Fatalf("%s workers=%d: node %d moments differ: %+v vs %+v",
						name, workers, id, par.Node[id], serial.Node[id])
				}
				if par.GateDelay[id] != serial.GateDelay[id] {
					t.Fatalf("%s workers=%d: gate %d delay moments differ", name, workers, id)
				}
				sx, sp := serial.Arrival(circuit.GateID(id)).Support()
				px, pp := par.Arrival(circuit.GateID(id)).Support()
				if len(sx) != len(px) {
					t.Fatalf("%s workers=%d: node %d PDF size differs", name, workers, id)
				}
				for i := range sx {
					if sx[i] != px[i] || sp[i] != pp[i] {
						t.Fatalf("%s workers=%d: node %d PDF differs at point %d",
							name, workers, id, i)
					}
				}
			}
			sx, sp := serial.CircuitPDF.Support()
			px, pp := par.CircuitPDF.Support()
			for i := range sx {
				if sx[i] != px[i] || sp[i] != pp[i] {
					t.Fatalf("%s workers=%d: circuit PDF differs", name, workers)
				}
			}
		}
	}
}

// TestDefaultWorkersMatchesSerial pins the default (Workers: 0, all CPUs)
// to the serial reference as well — the configuration every existing
// caller now runs under.
func TestDefaultWorkersMatchesSerial(t *testing.T) {
	c, err := gen.ISCASLike("c880")
	if err != nil {
		t.Fatal(err)
	}
	lib := cells.Default90nm()
	d, err := synth.Map(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	vm := variation.Default(lib)
	serial := Analyze(d, vm, Options{Workers: 1})
	def := Analyze(d, vm, Options{})
	if def.Mean != serial.Mean || def.Sigma != serial.Sigma {
		t.Errorf("default workers: (%v, %v) vs serial (%v, %v)",
			def.Mean, def.Sigma, serial.Mean, serial.Sigma)
	}
	for id := range serial.Node {
		if def.Node[id] != serial.Node[id] {
			t.Fatalf("node %d moments differ under default workers", id)
		}
	}
}
