package sta

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/synth"
)

// assertMatchesFull checks the incremental state against a from-scratch
// analysis, bit for bit.
func assertMatchesFull(t *testing.T, inc *Incremental, d *synth.Design) {
	t.Helper()
	want := Analyze(d)
	got := inc.Result()
	for i := range want.Arrival {
		if want.Arrival[i] != got.Arrival[i] {
			t.Fatalf("gate %d arrival: incremental %g vs full %g", i, got.Arrival[i], want.Arrival[i])
		}
		if want.Slew[i] != got.Slew[i] {
			t.Fatalf("gate %d slew: incremental %g vs full %g", i, got.Slew[i], want.Slew[i])
		}
		if want.Delay[i] != got.Delay[i] {
			t.Fatalf("gate %d delay: incremental %g vs full %g", i, got.Delay[i], want.Delay[i])
		}
		if want.InSlew[i] != got.InSlew[i] {
			t.Fatalf("gate %d input slew: incremental %g vs full %g", i, got.InSlew[i], want.InSlew[i])
		}
	}
	if want.MaxArrival != got.MaxArrival {
		t.Fatalf("MaxArrival: %g vs %g", got.MaxArrival, want.MaxArrival)
	}
	if want.WorstPO != got.WorstPO {
		t.Fatalf("WorstPO: %d vs %d", got.WorstPO, want.WorstPO)
	}
}

func TestIncrementalSingleResizeMatchesFull(t *testing.T) {
	d := mapped(t, gen.ALU("alu", 6))
	inc := NewIncremental(d)
	// Resize a mid-circuit gate.
	var target circuit.GateID = circuit.None
	lv, depth := d.Circuit.Levels()
	for i := range d.Circuit.Gates {
		if d.Circuit.Gates[i].Fn.IsLogic() && int(lv[i]) == depth/2 {
			target = circuit.GateID(i)
			break
		}
	}
	if target == circuit.None {
		t.Fatal("no target")
	}
	touched := inc.ResizeAll([]SizeChange{{Gate: target, Size: 5}})
	if touched == 0 {
		t.Fatal("no gates touched")
	}
	assertMatchesFull(t, inc, d)
}

func TestIncrementalRandomSequenceMatchesFull(t *testing.T) {
	d := mapped(t, gen.SEC("sec", 16, true))
	inc := NewIncremental(d)
	rng := rand.New(rand.NewSource(11))
	var logic []circuit.GateID
	for i := range d.Circuit.Gates {
		if d.Circuit.Gates[i].Fn.IsLogic() {
			logic = append(logic, circuit.GateID(i))
		}
	}
	for step := 0; step < 60; step++ {
		g := logic[rng.Intn(len(logic))]
		size := rng.Intn(d.Lib.NumSizes(d.Kind(g)))
		inc.ResizeAll([]SizeChange{{Gate: g, Size: size}})
	}
	assertMatchesFull(t, inc, d)
}

func TestIncrementalNoopResize(t *testing.T) {
	d := mapped(t, gen.ParityTree("p", 8))
	inc := NewIncremental(d)
	var g circuit.GateID
	for i := range d.Circuit.Gates {
		if d.Circuit.Gates[i].Fn.IsLogic() {
			g = circuit.GateID(i)
			break
		}
	}
	if touched := inc.ResizeAll([]SizeChange{{Gate: g, Size: d.Circuit.Gate(g).SizeIdx}}); touched != 0 {
		t.Fatalf("no-op resize touched %d gates", touched)
	}
}

func TestIncrementalDirtyRegionIsLocal(t *testing.T) {
	// On a large circuit a single resize must touch far fewer gates than
	// the netlist size.
	c, err := gen.ISCASLike("c5315")
	if err != nil {
		t.Fatal(err)
	}
	d := mapped(t, c)
	inc := NewIncremental(d)
	lv, _ := d.Circuit.Levels()
	// A gate near the outputs has a small downstream cone.
	var target circuit.GateID = circuit.None
	maxLv := int32(0)
	for i := range d.Circuit.Gates {
		if d.Circuit.Gates[i].Fn.IsLogic() && lv[i] > maxLv {
			maxLv = lv[i]
			target = circuit.GateID(i)
		}
	}
	touched := inc.ResizeAll([]SizeChange{{Gate: target, Size: 4}})
	if touched == 0 || touched > d.Circuit.NumGates()/10 {
		t.Fatalf("dirty region %d of %d gates", touched, d.Circuit.NumGates())
	}
	assertMatchesFull(t, inc, d)
}

func TestIncrementalRefreshAfterBatch(t *testing.T) {
	d := mapped(t, gen.Comparator("cmp", 8))
	inc := NewIncremental(d)
	// Edit sizes in place, as the optimizers do while they score, then
	// hand the same edits to ResizeAll: it must diff them against its own
	// record, not the already-edited circuit. The last gate is listed
	// twice and must end at its second size.
	var batch []SizeChange
	for i := range d.Circuit.Gates {
		if d.Circuit.Gates[i].Fn.IsLogic() && len(batch) < 5 {
			d.Circuit.Gates[i].SizeIdx = 3
			batch = append(batch, SizeChange{Gate: circuit.GateID(i), Size: 3})
		}
	}
	last := batch[len(batch)-1].Gate
	batch = append(batch, SizeChange{Gate: last, Size: 2})
	if touched := inc.ResizeAll(batch); touched == 0 {
		t.Fatal("ResizeAll after a batch of in-place edits touched no gates")
	}
	if got := d.Circuit.Gate(last).SizeIdx; got != 2 {
		t.Fatalf("gate listed twice ended at size %d, want its last entry's 2", got)
	}
	assertMatchesFull(t, inc, d)
	if touched := inc.ResizeAll(batch); touched != 0 {
		t.Fatalf("repeating the same list re-evaluated %d gates", touched)
	}
}

func TestIncrementalPanicsOnStructuralChange(t *testing.T) {
	d := mapped(t, gen.ParityTree("p", 4))
	inc := NewIncremental(d)
	d.Circuit.MustAddGate("extra", circuit.Input)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic after structural mutation")
		}
	}()
	inc.ResizeAll([]SizeChange{{Gate: d.Circuit.Outputs[0], Size: 3}})
}
