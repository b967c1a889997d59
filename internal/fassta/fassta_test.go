package fassta

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/ssta"
	"repro/internal/synth"
	"repro/internal/variation"
)

func setup(t *testing.T, c *circuit.Circuit) (*synth.Design, *ssta.Result, *variation.Model) {
	t.Helper()
	lib := cells.Default90nm()
	d, err := synth.Map(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	vm := variation.Default(lib)
	full := ssta.Analyze(d, vm, ssta.Options{})
	return d, full, vm
}

// anyLogicGate returns a gate in the middle of the circuit.
func anyLogicGate(d *synth.Design) circuit.GateID {
	lv, depth := d.Circuit.Levels()
	for i := range d.Circuit.Gates {
		if d.Circuit.Gates[i].Fn.IsLogic() && int(lv[i]) == depth/2 {
			return circuit.GateID(i)
		}
	}
	for i := range d.Circuit.Gates {
		if d.Circuit.Gates[i].Fn.IsLogic() {
			return circuit.GateID(i)
		}
	}
	panic("no logic gates")
}

func TestExtractContainsTargetAndNeighbours(t *testing.T) {
	d, full, vm := setup(t, gen.RippleCarryAdder("rca", 8))
	target := anyLogicGate(d)
	s := Extract(d, full, vm, target, 2)
	found := false
	for _, id := range s.Members {
		if id == target {
			found = true
		}
	}
	if !found {
		t.Fatal("target not in subcircuit")
	}
	// All direct logic fanins/fanouts must be members at depth >= 1.
	for _, f := range d.Circuit.Gate(target).Fanin {
		if !d.Circuit.Gate(f).Fn.IsLogic() {
			continue
		}
		if !slices.Contains(s.Members, f) {
			t.Fatalf("fanin %d missing from subcircuit", f)
		}
	}
	for _, fo := range d.Circuit.Gate(target).Fanout {
		if !slices.Contains(s.Members, fo) {
			t.Fatalf("fanout %d missing from subcircuit", fo)
		}
	}
	if len(s.Outputs) == 0 {
		t.Fatal("no subcircuit outputs")
	}
}

func TestMembersTopoOrdered(t *testing.T) {
	d, full, vm := setup(t, gen.SEC("sec", 16, true))
	s := Extract(d, full, vm, anyLogicGate(d), 2)
	pos := make(map[circuit.GateID]int)
	for i, id := range s.Members {
		pos[id] = i
	}
	for _, id := range s.Members {
		for _, f := range d.Circuit.Gate(id).Fanin {
			if j, ok := pos[f]; ok && j >= pos[id] {
				t.Fatalf("member order violates edges: %d before %d", id, f)
			}
		}
	}
}

func TestDepthGrowsSubcircuit(t *testing.T) {
	d, full, vm := setup(t, gen.ArrayMultiplier("mul", 6, false))
	target := anyLogicGate(d)
	s1 := Extract(d, full, vm, target, 1)
	s2 := Extract(d, full, vm, target, 2)
	s3 := Extract(d, full, vm, target, 3)
	if !(len(s1.Members) <= len(s2.Members) && len(s2.Members) <= len(s3.Members)) {
		t.Fatalf("member counts not monotone in depth: %d %d %d",
			len(s1.Members), len(s2.Members), len(s3.Members))
	}
	if len(s3.Members) <= len(s1.Members) {
		t.Fatal("depth had no effect in a deep circuit")
	}
}

func TestCostAtCurrentSizeTracksFULLSSTA(t *testing.T) {
	// With the design unchanged, FASSTA's moments at the subcircuit
	// outputs should approximate FULLSSTA's node moments there.
	d, full, vm := setup(t, gen.RippleCarryAdder("rca", 8))
	target := anyLogicGate(d)
	s := Extract(d, full, vm, target, 2)
	cur := d.Circuit.Gate(target).SizeIdx
	got := s.Cost(cur, 3)
	want := math.Inf(-1)
	for _, id := range s.Outputs {
		m := full.Node[id]
		if c := m.Mean + 3*m.Sigma(); c > want {
			want = c
		}
	}
	if math.Abs(got-want)/want > 0.10 {
		t.Fatalf("FASSTA cost %g deviates from FULLSSTA %g by >10%%", got, want)
	}
}

func TestCostDoesNotMutateDesign(t *testing.T) {
	d, full, vm := setup(t, gen.ALU("alu", 4))
	target := anyLogicGate(d)
	snap := d.Circuit.SizeSnapshot()
	s := Extract(d, full, vm, target, 2)
	for size := 0; size < d.Lib.NumSizes(d.Kind(target)); size++ {
		s.Cost(size, 3)
		s.CostDeterministic(size)
	}
	after := d.Circuit.SizeSnapshot()
	for i := range snap {
		if snap[i] != after[i] {
			t.Fatal("Cost mutated the design")
		}
	}
}

func TestUpsizingLoadedTargetReducesStatCost(t *testing.T) {
	// Build a driver under heavy load; upsizing it must reduce the
	// statistical cost of its subcircuit.
	c := circuit.New("hot")
	a := c.MustAddGate("a", circuit.Input)
	d1 := c.MustAddGate("d1", circuit.Not)
	c.MustConnect(a, d1)
	drv := c.MustAddGate("drv", circuit.Not)
	c.MustConnect(d1, drv)
	for i := 0; i < 10; i++ {
		s := c.MustAddGate("", circuit.Not)
		c.MustConnect(drv, s)
		c.MustMarkOutput(s)
	}
	d, full, vm := setup(t, c)
	target := d.Circuit.MustLookup("drv")
	s := Extract(d, full, vm, target, 2)
	c0 := s.Cost(0, 3)
	c5 := s.Cost(5, 3)
	if c5 >= c0 {
		t.Fatalf("upsizing hot driver did not reduce cost: %g -> %g", c0, c5)
	}
	best, bestCost, curCost := s.BestSize(3, 0)
	if best == 0 {
		t.Fatal("BestSize kept minimum size for a hot driver")
	}
	if bestCost > curCost {
		t.Fatal("BestSize returned worse cost than current")
	}
}

func TestBestSizeNeverWorse(t *testing.T) {
	d, full, vm := setup(t, gen.Comparator("cmp", 8))
	for i := range d.Circuit.Gates {
		g := &d.Circuit.Gates[i]
		if !g.Fn.IsLogic() {
			continue
		}
		s := Extract(d, full, vm, g.ID, 2)
		_, bestCost, curCost := s.BestSize(3, 0)
		if bestCost > curCost+1e-9 {
			t.Fatalf("gate %s: best cost %g worse than current %g", g.Name, bestCost, curCost)
		}
		_, bd, cd := s.BestSizeDeterministic(0)
		if bd > cd+1e-9 {
			t.Fatalf("gate %s: deterministic best worse than current", g.Name)
		}
	}
}

func TestLambdaShiftsPreferredSize(t *testing.T) {
	// Higher lambda weighs sigma more; across the whole circuit the
	// total preferred upsizing should not shrink.
	d, full, vm := setup(t, gen.ALU("alu", 6))
	sum0, sum9 := 0, 0
	for i := range d.Circuit.Gates {
		g := &d.Circuit.Gates[i]
		if !g.Fn.IsLogic() {
			continue
		}
		s := Extract(d, full, vm, g.ID, 2)
		b0, _, _ := s.BestSize(0, 0)
		b9, _, _ := s.BestSize(9, 0)
		sum0 += b0
		sum9 += b9
	}
	if sum9 < sum0 {
		t.Fatalf("higher lambda preferred smaller total sizing: %d vs %d", sum9, sum0)
	}
}

func TestCostDeterministicMatchesSTAAtCurrentSize(t *testing.T) {
	d, full, vm := setup(t, gen.ParityTree("par", 16))
	target := anyLogicGate(d)
	s := Extract(d, full, vm, target, 2)
	got := s.CostDeterministic(d.Circuit.Gate(target).SizeIdx)
	want := math.Inf(-1)
	for _, id := range s.Outputs {
		if a := full.STA.Arrival[id]; a > want {
			want = a
		}
	}
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("deterministic cost %g != STA arrival %g", got, want)
	}
}
