package synth

import (
	"math"
	"testing"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logicsim"
)

func lib(t *testing.T) *cells.Library {
	t.Helper()
	return cells.Default90nm()
}

func TestMapPreservesFunctionSmallBlocks(t *testing.T) {
	blocks := []*circuit.Circuit{
		gen.RippleCarryAdder("rca", 4),
		gen.CarryLookaheadAdder("cla", 4),
		gen.Comparator("cmp", 4),
		gen.ParityTree("par", 7),
		gen.SEC("sec", 6, true),
		gen.PriorityInterrupt("pi", 5),
		gen.ALU("alu", 3),
		gen.Decoder("dec", 3),
		gen.MuxTree("mux", 2),
		gen.ArrayMultiplier("mul", 4, false),
	}
	for _, c := range blocks {
		d, err := Map(c, lib(t))
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		res, err := logicsim.CheckEquivalence(c, d.Circuit, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if !res.Equivalent {
			t.Fatalf("%s: mapping changed function at input %v (PO %d)",
				c.Name, res.FailingInput, res.FailingPO)
		}
	}
}

func TestMapPreservesFunctionRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		c := gen.RandomDAG("r", 10, 120, 8, seed)
		d, err := Map(c, lib(t))
		if err != nil {
			t.Fatal(err)
		}
		res, err := logicsim.CheckEquivalence(c, d.Circuit, 400, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatalf("seed %d: mapping changed function", seed)
		}
	}
}

func TestMappedGatesAllBound(t *testing.T) {
	c := gen.ALU("alu", 4)
	d, err := Map(c, lib(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Circuit.Gates {
		g := &d.Circuit.Gates[i]
		if g.Fn == circuit.Input {
			if g.CellRef >= 0 {
				t.Errorf("input %q bound to a cell", g.Name)
			}
			continue
		}
		if g.CellRef < 0 {
			t.Errorf("logic gate %q unmapped", g.Name)
		}
		if g.SizeIdx != 0 {
			t.Errorf("gate %q not seeded at minimum size", g.Name)
		}
		kind := cells.Kind(g.CellRef)
		if kind.Inputs() != len(g.Fanin) {
			t.Errorf("gate %q: kind %s wants %d fanins, has %d",
				g.Name, kind, kind.Inputs(), len(g.Fanin))
		}
	}
}

func TestMapRejectsConstants(t *testing.T) {
	c := circuit.New("k")
	k := c.MustAddGate("k1", circuit.Const1)
	b := c.MustAddGate("b", circuit.Buf)
	c.MustConnect(k, b)
	c.MustMarkOutput(b)
	if _, err := Map(c, lib(t)); err == nil {
		t.Fatal("expected constant error")
	}
}

func TestWideGateDecomposition(t *testing.T) {
	// A 10-input NAND from a parsed netlist must map to a tree.
	c := circuit.New("wide")
	var ins []circuit.GateID
	for i := 0; i < 10; i++ {
		ins = append(ins, c.MustAddGate("", circuit.Input))
	}
	n := c.MustAddGate("y", circuit.Nand)
	for _, s := range ins {
		c.MustConnect(s, n)
	}
	c.MustMarkOutput(n)
	d, err := Map(c, lib(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Circuit.Gates {
		if got := len(d.Circuit.Gates[i].Fanin); got > 4 {
			t.Fatalf("mapped gate with fanin %d", got)
		}
	}
	res, err := logicsim.CheckEquivalence(c, d.Circuit, 0, 1)
	if err != nil || !res.Equivalent {
		t.Fatalf("wide NAND mapping wrong: %v %v", res, err)
	}
}

func TestLoadComputation(t *testing.T) {
	// y drives two INV gates: load = 2 * INV X1 input cap.
	c := circuit.New("load")
	a := c.MustAddGate("a", circuit.Input)
	y := c.MustAddGate("y", circuit.Buf)
	c.MustConnect(a, y)
	i1 := c.MustAddGate("i1", circuit.Not)
	i2 := c.MustAddGate("i2", circuit.Not)
	c.MustConnect(y, i1)
	c.MustConnect(y, i2)
	c.MustMarkOutput(i1)
	c.MustMarkOutput(i2)
	d, err := Map(c, lib(t))
	if err != nil {
		t.Fatal(err)
	}
	invCap := d.Lib.Cell(cells.INV, 0).InputCap
	yid := d.Circuit.MustLookup("y")
	if got := d.Load(yid); math.Abs(got-2*invCap) > 1e-12 {
		t.Errorf("Load(y) = %g, want %g", got, 2*invCap)
	}
	// i1 is a PO: load = PrimaryOutputLoad.
	if got := d.Load(d.Circuit.MustLookup("i1")); math.Abs(got-d.Lib.PrimaryOutputLoad) > 1e-12 {
		t.Errorf("Load(i1) = %g, want %g", got, d.Lib.PrimaryOutputLoad)
	}
}

func TestLoadGrowsWhenFanoutUpsized(t *testing.T) {
	c := gen.ParityTree("p", 4)
	d, err := Map(c, lib(t))
	if err != nil {
		t.Fatal(err)
	}
	// Find an internal gate with a fanout.
	var driver, sink circuit.GateID = circuit.None, circuit.None
	for i := range d.Circuit.Gates {
		g := &d.Circuit.Gates[i]
		if g.CellRef >= 0 && len(g.Fanout) == 1 {
			driver, sink = g.ID, g.Fanout[0]
			break
		}
	}
	if driver == circuit.None {
		t.Fatal("no suitable driver found")
	}
	before := d.Load(driver)
	d.Circuit.Gate(sink).SizeIdx = 5
	after := d.Load(driver)
	if after <= before {
		t.Errorf("upsizing fanout did not raise load: %g -> %g", before, after)
	}
}

func TestAreaSumsAndRespondsToSizing(t *testing.T) {
	c := gen.RippleCarryAdder("rca", 4)
	d, err := Map(c, lib(t))
	if err != nil {
		t.Fatal(err)
	}
	a0 := d.Area()
	if a0 <= 0 {
		t.Fatal("zero area")
	}
	// Upsizing any gate increases area.
	for i := range d.Circuit.Gates {
		if d.Circuit.Gates[i].CellRef >= 0 {
			d.Circuit.Gates[i].SizeIdx = 3
			break
		}
	}
	if d.Area() <= a0 {
		t.Error("area did not grow after upsizing")
	}
}

func TestKindPanicsOnUnmapped(t *testing.T) {
	c := circuit.New("u")
	a := c.MustAddGate("a", circuit.Input)
	_ = a
	d := &Design{Circuit: c, Lib: lib(t)}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unmapped gate")
		}
	}()
	d.Kind(a)
}

func TestMapISCASLikeAll(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range gen.ISCASNames() {
		c, err := gen.ISCASLike(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Map(c, lib(t))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := d.Circuit.NumLogicGates()
		want := gen.PaperGateCounts[name]
		t.Logf("%-6s mapped %5d gates (paper %5d, ratio %.2f)", name, got, want, float64(got)/float64(want))
	}
}

// TestCellCountMatchesMapping checks the reservation Map makes: for every
// fan-in width from 1 to 23 of every n-ary function, and for random
// netlists, cellCount predicts exactly the gates mapping adds.
func TestCellCountMatchesMapping(t *testing.T) {
	var cs []*circuit.Circuit
	for _, fn := range []circuit.Fn{circuit.And, circuit.Nand, circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor} {
		for w := 1; w <= 23; w++ {
			c := circuit.New("wide")
			g := c.MustAddGate("y", fn)
			for i := 0; i < w; i++ {
				c.MustConnect(c.MustAddGate("", circuit.Input), g)
			}
			c.MustMarkOutput(g)
			cs = append(cs, c)
		}
	}
	cs = append(cs, gen.RandomDAG("dag", 32, 2000, 16, 3), gen.SEC("sec", 64, true), gen.ALU("alu", 8))
	for _, c := range cs {
		want := 0
		for i := range c.Gates {
			want += cellCount(&c.Gates[i])
		}
		d, err := Map(c, lib(t))
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Circuit.NumGates(); got != want {
			t.Fatalf("%s (%s): mapped %d gates, cellCount predicted %d", c.Name, c.Gates[len(c.Gates)-1].Fn, got, want)
		}
	}
}
