package synth

import (
	"testing"
	"testing/quick"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logicsim"
)

// Mapping any random DAG yields a design where every logic gate is bound
// to a cell whose arity matches its fanin, all fanins <= 4, function
// preserved, and area positive.
func TestMapInvariantsProperty(t *testing.T) {
	lib := cells.Default90nm()
	prop := func(seed int64) bool {
		c := gen.RandomDAG("r", 6, 70, 5, seed)
		d, err := Map(c, lib)
		if err != nil {
			t.Logf("map: %v", err)
			return false
		}
		for i := range d.Circuit.Gates {
			g := &d.Circuit.Gates[i]
			if g.Fn == circuit.Input {
				continue
			}
			if g.CellRef < 0 {
				return false
			}
			kind := cells.Kind(g.CellRef)
			if kind.Inputs() != len(g.Fanin) || len(g.Fanin) > 4 {
				return false
			}
		}
		if d.Area() <= 0 {
			return false
		}
		res, err := logicsim.CheckEquivalence(c, d.Circuit, 150, seed)
		if err != nil {
			return false
		}
		return res.Equivalent
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Load is additive: the load on a gate equals the sum of its fanout pin
// caps plus the PO load if marked. The composed SEC+ALU design adds a
// case with hundreds of outputs.
func TestLoadAdditivityProperty(t *testing.T) {
	lib := cells.Default90nm()
	loadAdditive := func(c *circuit.Circuit) bool {
		d, err := Map(c, lib)
		if err != nil {
			return false
		}
		poSet := map[circuit.GateID]bool{}
		for _, po := range d.Circuit.Outputs {
			poSet[po] = true
		}
		for i := range d.Circuit.Gates {
			g := &d.Circuit.Gates[i]
			want := 0.0
			for _, fo := range g.Fanout {
				want += d.Cell(fo).InputCap
			}
			if poSet[g.ID] {
				want += lib.PrimaryOutputLoad
			}
			if diff := d.Load(g.ID) - want; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	prop := func(seed int64) bool { return loadAdditive(gen.RandomDAG("r", 5, 40, 4, seed)) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	many := gen.Compose("many", gen.SEC("sec", 128, true), gen.ALU("alu", 32))
	if len(many.Outputs) < 100 {
		t.Fatalf("composed design has only %d outputs", len(many.Outputs))
	}
	if !loadAdditive(many) {
		t.Fatal("Load is not additive on the composed SEC+ALU design")
	}
}

// Area strictly increases whenever any gate's size strictly increases.
func TestAreaStrictlyMonotoneInSizes(t *testing.T) {
	lib := cells.Default90nm()
	prop := func(seed int64, gateRaw, sizeRaw uint8) bool {
		c := gen.RandomDAG("r", 5, 30, 4, seed)
		d, err := Map(c, lib)
		if err != nil {
			return false
		}
		var logic []circuit.GateID
		for i := range d.Circuit.Gates {
			if d.Circuit.Gates[i].Fn.IsLogic() {
				logic = append(logic, circuit.GateID(i))
			}
		}
		g := logic[int(gateRaw)%len(logic)]
		a0 := d.Area()
		newSize := 1 + int(sizeRaw)%(d.Lib.NumSizes(d.Kind(g))-1)
		d.Circuit.Gate(g).SizeIdx = newSize
		return d.Area() > a0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
