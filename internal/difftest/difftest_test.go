package difftest

import (
	"testing"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/ssta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// testCase is one benchmark the differential sequences run on: the
// generated random-DAG family plus two ISCAS-like circuits (c432,
// alu3), as the issue's harness spec requires.
type testCase struct {
	name string
	mk   func(t *testing.T) (*synth.Design, *variation.Model)
}

func iscas(name string) func(t *testing.T) (*synth.Design, *variation.Model) {
	return func(t *testing.T) (*synth.Design, *variation.Model) {
		t.Helper()
		d, vm, err := experiments.NewDesign(name)
		if err != nil {
			t.Fatalf("NewDesign(%s): %v", name, err)
		}
		return d, vm
	}
}

func randomDAG(name string, nIn, nGates, nOut int, seed int64) func(t *testing.T) (*synth.Design, *variation.Model) {
	return func(t *testing.T) (*synth.Design, *variation.Model) {
		t.Helper()
		c := gen.RandomDAG(name, nIn, nGates, nOut, seed)
		lib := cells.Default90nm()
		d, err := synth.Map(c, lib)
		if err != nil {
			t.Fatalf("map %s: %v", name, err)
		}
		return d, variation.Default(lib)
	}
}

func cases() []testCase {
	return []testCase{
		{"rdag-small", randomDAG("rdag-small", 8, 60, 4, 101)},
		{"rdag-mid", randomDAG("rdag-mid", 12, 140, 8, 202)},
		{"rdag-wide", randomDAG("rdag-wide", 24, 220, 16, 303)},
		{"c432", iscas("c432")},
		{"alu3", iscas("alu3")},
	}
}

// Step budgets: the harness proves at least 1000 randomized resize
// steps bit-identical. These add up to 5*(150 + 50) = 1000 verified
// steps per full test run (plus the extra pre-rollback verifications
// inside the driver).
const (
	sstaSteps = 150
	staSteps  = 50
)

func TestIncrementalSSTABitExact(t *testing.T) {
	for _, tc := range cases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			d, vm := tc.mk(t)
			if err := DriveSSTA(d, vm, ssta.Options{}, sstaSteps, 0xD1F7+uint64(len(tc.name))); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestIncrementalSSTAWorkersAgree runs the SSTA differential sequence
// at explicit Workers 1, 2 and 4 in lockstep, so the level-parallel
// dirty-cone repair is exercised on any host: every step must verify
// against a from-scratch analysis and agree across worker counts on
// node values, touched counts, Evals and NodeEvals, rollbacks included.
func TestIncrementalSSTAWorkersAgree(t *testing.T) {
	for _, tc := range cases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			d, vm := tc.mk(t)
			if err := DriveSSTAWorkers(d, vm, ssta.Options{}, []int{1, 2, 4}, sstaSteps/3, 0xA9E+uint64(len(tc.name))); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestIncrementalSTABitExact(t *testing.T) {
	for _, tc := range cases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			d, _ := tc.mk(t)
			if err := DriveSTA(d, staSteps, 0x57A+uint64(len(tc.name))); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRollbackRestoresExactState exercises Rollback directly (beyond
// the driver's randomized rollback steps): after a batch resize and a
// rollback, every field must match the pre-change from-scratch
// analysis, and a rollback with no open transaction must be a no-op.
func TestRollbackRestoresExactState(t *testing.T) {
	d, vm := iscas("c432")(t)
	before := ssta.Analyze(d, vm, ssta.Options{})
	inc := ssta.NewIncremental(d, vm, ssta.Options{})

	var batch []ssta.SizeChange
	c := d.Circuit
	for id := 0; id < c.NumGates() && len(batch) < 7; id++ {
		g := circuit.GateID(id)
		gate := c.Gate(g)
		if gate.Fn.IsLogic() && gate.SizeIdx+1 < d.Lib.NumSizes(cells.Kind(gate.CellRef)) {
			batch = append(batch, ssta.SizeChange{Gate: g, Size: gate.SizeIdx + 1})
		}
	}
	if n, _ := inc.ResizeAll(batch); n == 0 {
		t.Fatal("batch resize touched nothing")
	}
	if err := CompareSSTA(inc.Result(), before); err == nil {
		t.Fatal("batch resize left the analysis unchanged; test is vacuous")
	}
	inc.Rollback()
	for _, ch := range batch {
		if got := c.Gate(ch.Gate).SizeIdx; got == ch.Size {
			t.Fatalf("gate %d size not rolled back", ch.Gate)
		}
	}
	if err := CompareSSTA(inc.Result(), before); err != nil {
		t.Fatalf("rollback did not restore exact state: %v", err)
	}
	// Idempotent: a second rollback (no open transaction) changes nothing.
	inc.Rollback()
	if err := CompareSSTA(inc.Result(), before); err != nil {
		t.Fatalf("second rollback disturbed state: %v", err)
	}
}

// TestFanoutDisjointResizeNotReevaluated is the early-cutoff property
// test: resizing a gate must never re-evaluate a gate outside the
// affected region (the resized gate, its drivers, and the transitive
// fanout of those seeds), observed through the engine's per-node eval
// counter, and must leave such a gate's arrival PDF bit-identical.
func TestFanoutDisjointResizeNotReevaluated(t *testing.T) {
	d, vm := iscas("c432")(t)
	c := d.Circuit
	inc := ssta.NewIncremental(d, vm, ssta.Options{})

	checked := 0
	for id := 0; id < c.NumGates() && checked < 5; id++ {
		g := circuit.GateID(id)
		gate := c.Gate(g)
		if !gate.Fn.IsLogic() {
			continue
		}
		n := d.Lib.NumSizes(cells.Kind(gate.CellRef))
		if gate.SizeIdx+1 >= n {
			continue
		}
		// The region a resize of g may legally touch.
		seeds := append([]circuit.GateID{g}, gate.Fanin...)
		affected := map[circuit.GateID]bool{}
		for _, a := range c.TransitiveFanout(seeds, c.NumGates()) {
			affected[a] = true
		}
		for _, s := range seeds {
			affected[s] = true
		}
		if len(affected) >= c.NumGates() {
			continue // no disjoint witness for this gate
		}
		// Record eval counts and PDFs of every disjoint gate.
		type witness struct {
			id    circuit.GateID
			evals int64
		}
		var disjoint []witness
		for o := 0; o < c.NumGates(); o++ {
			og := circuit.GateID(o)
			if !affected[og] {
				disjoint = append(disjoint, witness{id: og, evals: inc.NodeEvals(og)})
			}
		}
		pdfBefore := make(map[circuit.GateID][2]float64)
		for _, w := range disjoint {
			m := inc.Result().Node[w.id]
			pdfBefore[w.id] = [2]float64{m.Mean, m.Var}
		}
		inc.Resize(g, gate.SizeIdx+1)
		for _, w := range disjoint {
			if got := inc.NodeEvals(w.id); got != w.evals {
				t.Fatalf("resize(%d): fanout-disjoint gate %d re-evaluated (%d -> %d)", g, w.id, w.evals, got)
			}
			m := inc.Result().Node[w.id]
			if b := pdfBefore[w.id]; m.Mean != b[0] || m.Var != b[1] {
				t.Fatalf("resize(%d): fanout-disjoint gate %d moments moved", g, w.id)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no gate with a fanout-disjoint region found; property untested")
	}
}
