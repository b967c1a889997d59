package ssta

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/synth"
	"repro/internal/variation"
)

// flatFamily is the Table-1 slice the differential tests sweep: small
// enough to keep CI fast, structurally diverse (reconvergence, wide
// datapaths, deep multiply arrays are all represented).
var flatFamily = []string{"alu2", "c432", "c499", "c880", "c1355"}

func setupISCAS(t *testing.T, name string) (*synth.Design, *variation.Model) {
	t.Helper()
	c, err := gen.ISCASLike(name)
	if err != nil {
		t.Fatal(err)
	}
	lib := cells.Default90nm()
	d, err := synth.Map(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	return d, variation.Default(lib)
}

// requireSameResult asserts two analyses are bit-identical on every
// node-level and circuit-level field.
func requireSameResult(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if got.Mean != want.Mean || got.Sigma != want.Sigma {
		t.Fatalf("%s: circuit moments differ: (%v,%v) vs (%v,%v)", ctx, got.Mean, got.Sigma, want.Mean, want.Sigma)
	}
	if !got.CircuitPDF.Equal(want.CircuitPDF) {
		t.Fatalf("%s: circuit PDF differs", ctx)
	}
	if got.STA.MaxArrival != want.STA.MaxArrival || got.STA.WorstPO != want.STA.WorstPO {
		t.Fatalf("%s: STA summary differs", ctx)
	}
	for i := range want.Node {
		if got.STA.Arrival[i] != want.STA.Arrival[i] ||
			got.STA.Slew[i] != want.STA.Slew[i] ||
			got.STA.Delay[i] != want.STA.Delay[i] ||
			got.STA.InSlew[i] != want.STA.InSlew[i] {
			t.Fatalf("%s: STA node %d differs", ctx, i)
		}
		if id := circuit.GateID(i); !got.Arrival(id).Equal(want.Arrival(id)) {
			t.Fatalf("%s: arrival PDF at node %d differs", ctx, i)
		}
		if got.Node[i] != want.Node[i] || got.GateDelay[i] != want.GateDelay[i] {
			t.Fatalf("%s: moments at node %d differ", ctx, i)
		}
	}
}

// TestFlatBitIdenticalToAnalyze pins the arena engine to the heap-PDF
// oracle on every node and on the circuit PDF, for every Table-1
// circuit, at several worker counts and sampling rates.
func TestFlatBitIdenticalToAnalyze(t *testing.T) {
	for _, name := range gen.ISCASNames() {
		d, vm := setupISCAS(t, name)
		for _, pts := range []int{8, 12} {
			want := oracle(d, vm, pts)
			for _, workers := range []int{1, 2, 4} {
				ctx := fmt.Sprintf("%s pts=%d workers=%d", name, pts, workers)
				got := Analyze(d, vm, Options{Points: pts, Workers: workers})
				requireSameResult(t, ctx, got, want)
				if got.Cost(d, 3) != want.Cost(d, 3) {
					t.Fatalf("%s: Cost differs", ctx)
				}
			}
		}
	}
}

func TestFlatRecomputeTracksResizes(t *testing.T) {
	d, vm := setupISCAS(t, "c432")
	f := NewFlat(d, vm, Options{Workers: 1})
	rng := rand.New(rand.NewSource(19))
	logic := logicGates(d)
	for step := 0; step < 5; step++ {
		for k := 0; k < 10; k++ {
			id := logic[rng.Intn(len(logic))]
			n := d.Lib.NumSizes(d.Kind(id))
			d.Circuit.Gate(id).SizeIdx = rng.Intn(n)
		}
		f.Recompute()
		requireSameResult(t, "recompute", f.Result(), oracle(d, vm, 12))
	}
}

func TestFlatRecomputeDoesNotAllocate(t *testing.T) {
	d, vm := setupISCAS(t, "alu2")
	f := NewFlat(d, vm, Options{Workers: 1})
	if n := testing.AllocsPerRun(10, f.Recompute); n != 0 {
		t.Fatalf("Flat.Recompute allocates %v per run, want 0", n)
	}
}

func logicGates(d *synth.Design) []circuit.GateID {
	var ids []circuit.GateID
	for i := range d.Circuit.Gates {
		if d.Circuit.Gates[i].Fn != circuit.Input {
			ids = append(ids, circuit.GateID(i))
		}
	}
	return ids
}

// randomCandidates draws K candidate sizings: mostly single-gate resizes
// (the optimizer's probe shape), some multi-gate batches, and one
// guaranteed no-op.
func randomCandidates(rng *rand.Rand, d *synth.Design, k int) [][]SizeChange {
	logic := logicGates(d)
	cands := make([][]SizeChange, 0, k)
	for len(cands) < k {
		var ch []SizeChange
		for n := 1 + rng.Intn(3); n > 0; n-- {
			id := logic[rng.Intn(len(logic))]
			ch = append(ch, SizeChange{Gate: id, Size: rng.Intn(d.Lib.NumSizes(d.Kind(id)))})
		}
		cands = append(cands, ch)
	}
	// A no-op candidate must come back Changed=false with clean numbers.
	id := logic[0]
	cands[len(cands)-1] = []SizeChange{{Gate: id, Size: d.Circuit.Gate(id).SizeIdx}}
	return cands
}

// applySequentially computes the ground-truth outcome of one candidate
// by actually resizing through the incremental engine and rolling back.
func applySequentially(d *synth.Design, inc *Incremental, lambda float64, ch []SizeChange) WhatIfOutcome {
	before := inc.Evals()
	n, _ := inc.ResizeAll(ch)
	r := inc.Result()
	out := WhatIfOutcome{
		Mean:       r.Mean,
		Sigma:      r.Sigma,
		Cost:       r.Cost(d, lambda),
		MaxArrival: r.STA.MaxArrival,
		Touched:    int(inc.Evals() - before),
		Changed:    n > 0,
	}
	inc.Rollback()
	return out
}

// whatIfDesigns is the BatchWhatIf sweep: the Table-1 slice plus a
// composed design with many primary outputs, where the overlay's load
// lookup runs on PO-heavy nets.
func whatIfDesigns(t *testing.T) map[string]*synth.Design {
	ds := map[string]*synth.Design{}
	for _, name := range flatFamily {
		ds[name], _ = setupISCAS(t, name)
	}
	ds["sec+alu"], _ = setup(t, gen.Compose("sec+alu", gen.SEC("sec", 32, true), gen.ALU("alu", 8)))
	return ds
}

func TestBatchWhatIfMatchesSequentialResizes(t *testing.T) {
	const lambda = 3.0
	for name, d := range whatIfDesigns(t) {
		vm := variation.Default(d.Lib)
		rng := rand.New(rand.NewSource(int64(len(name)) * 31))
		inc := NewIncremental(d, vm, Options{Workers: 1})
		cands := randomCandidates(rng, d, 12)

		want := make([]WhatIfOutcome, len(cands))
		for i, ch := range cands {
			want[i] = applySequentially(d, inc, lambda, ch)
		}
		for _, workers := range []int{1, 4} {
			got := inc.BatchWhatIf(cands, lambda, workers)
			for i := range got {
				if got[i].Mean != want[i].Mean || got[i].Sigma != want[i].Sigma ||
					got[i].Cost != want[i].Cost || got[i].MaxArrival != want[i].MaxArrival {
					t.Fatalf("%s workers=%d cand %d: outcome %+v, want %+v",
						name, workers, i, got[i], want[i])
				}
				if got[i].Touched != want[i].Touched {
					t.Fatalf("%s workers=%d cand %d: touched %d, want %d",
						name, workers, i, got[i].Touched, want[i].Touched)
				}
			}
		}
	}
}

func TestBatchWhatIfLeavesEngineClean(t *testing.T) {
	d, vm := setupISCAS(t, "c499")
	f := NewFlat(d, vm, Options{Workers: 1})
	clean := oracle(d, vm, 12)
	sizes := d.Circuit.SizeSnapshot()

	rng := rand.New(rand.NewSource(77))
	f.BatchWhatIf(randomCandidates(rng, d, 8), 3, 0)

	for i, s := range d.Circuit.SizeSnapshot() {
		if s != sizes[i] {
			t.Fatalf("BatchWhatIf moved gate %d size", i)
		}
	}
	requireSameResult(t, "engine after batch", f.Result(), clean)
}

func TestBatchWhatIfNoOpCandidate(t *testing.T) {
	d, vm := setupISCAS(t, "alu2")
	flat := NewFlat(d, vm, Options{Workers: 1})
	id := logicGates(d)[3]
	out := flat.BatchWhatIf([][]SizeChange{
		{{Gate: id, Size: d.Circuit.Gate(id).SizeIdx}},
	}, 3, 1)[0]
	if out.Changed || out.Touched != 0 {
		t.Fatalf("no-op candidate reported %+v", out)
	}
	if r := flat.Result(); out.Mean != r.Mean || out.Sigma != r.Sigma {
		t.Fatal("no-op candidate did not return the clean summary")
	}
}

func TestBatchWhatIfStaleSizesPanics(t *testing.T) {
	d, vm := setupISCAS(t, "alu2")
	flat := NewFlat(d, vm, Options{Workers: 1})
	id := logicGates(d)[0]
	d.Circuit.Gate(id).SizeIdx++
	defer func() {
		if recover() == nil {
			t.Fatal("BatchWhatIf on a stale engine did not panic")
		}
	}()
	flat.BatchWhatIf([][]SizeChange{{{Gate: id, Size: 0}}}, 3, 1)
}

// TestBatchWhatIfWorkersAgree pins every BatchWhatIf schedule at
// explicit worker counts, so they run on any host: K = 1 calls take the
// intra-candidate path (each wide level fanned out), K = 2 calls the
// kept pair (run concurrently when workers >= 2) and a K = 16 call the
// candidate-sharded path. Every outcome struct must equal the serial
// one exactly, Touched and Changed included, and the engine's
// bookkeeping must not move.
func TestBatchWhatIfWorkersAgree(t *testing.T) {
	const lambda = 3.0
	for name, d := range whatIfDesigns(t) {
		vm := variation.Default(d.Lib)
		cands := randomCandidates(rand.New(rand.NewSource(int64(len(name))*17)), d, 16)
		want := NewFlat(d, vm, Options{Workers: 1}).BatchWhatIf(cands, lambda, 1)
		for _, workers := range []int{1, 2, 4} {
			f := NewFlat(d, vm, Options{Workers: workers})
			batch := f.BatchWhatIf(cands, lambda, workers)
			for i, ch := range cands {
				one := f.BatchWhatIf([][]SizeChange{ch}, lambda, workers)[0]
				pair := f.BatchWhatIf([][]SizeChange{ch, cands[(i+1)%len(cands)]}, lambda, workers)
				if batch[i] != want[i] || one != want[i] || pair[0] != want[i] || pair[1] != want[(i+1)%len(cands)] {
					t.Fatalf("%s workers=%d cand %d: K=16 %+v, K=1 %+v, K=2 %+v, want %+v",
						name, workers, i, batch[i], one, pair[0], want[i])
				}
			}
			if f.Evals() != 0 {
				t.Fatalf("%s workers=%d: what-if moved Evals to %d", name, workers, f.Evals())
			}
		}
	}
}

// TestResizeAllAdoptsKeptCandidate pins adoption: after a two-candidate
// batch, a ResizeAll onto a kept candidate re-evaluates nothing yet
// leaves the analysis bit-identical to a fresh one, also when the list
// names the candidate's changes in another order or with no-op entries;
// a Rollback restores the prior analysis exactly, and a ResizeAll onto
// changes that match neither candidate repairs. Candidate 0 is always
// kept; candidate 1 only when the pair's cones fit in the circuit, which
// random single-gate pairs on c880 do and a pair of input-side gates on
// c6288 does not.
func TestResizeAllAdoptsKeptCandidate(t *testing.T) {
	c880, vm := setupISCAS(t, "c880")
	c6288, _ := setupISCAS(t, "c6288")
	rng := rand.New(rand.NewSource(5))
	wide := logicGates(c6288)[:2]
	for _, tc := range []struct {
		d     *synth.Design
		cands [][]SizeChange
		fits  bool
	}{
		{c880, randomCandidates(rng, c880, 3)[:2], true},
		{c880, randomCandidates(rng, c880, 3)[:2], true},
		{c6288, [][]SizeChange{
			{{Gate: wide[0], Size: c6288.Circuit.Gate(wide[0]).SizeIdx + 1}},
			{{Gate: wide[1], Size: c6288.Circuit.Gate(wide[1]).SizeIdx + 1}},
		}, false},
	} {
		d, cands := tc.d, tc.cands
		if got := conesFit(d, cands); got != tc.fits {
			t.Fatalf("%s: cones fit = %v, want %v; the test is vacuous", d.Circuit.Name, got, tc.fits)
		}
		before := oracle(d, vm, 12)
		// The same changes reversed, after a no-op entry for a gate the
		// candidates do not name.
		noop := logicGates(d)[len(logicGates(d))-1]
		for _, ch := range cands {
			for _, x := range ch {
				if x.Gate == noop {
					t.Fatal("the no-op gate is a candidate's; the test is vacuous")
				}
			}
		}
		for _, workers := range []int{1, 2} {
			f := NewFlat(d, vm, Options{Workers: workers})
			for k := range cands {
				for _, list := range [][]SizeChange{
					cands[k],
					append([]SizeChange{{Gate: noop, Size: d.Circuit.Gate(noop).SizeIdx}}, reversed(cands[k])...),
				} {
					f.BatchWhatIf(cands, 3, workers)
					evals := f.Evals()
					n, opened := f.ResizeAll(list)
					if !opened {
						t.Fatalf("candidate %d moves no size; the test is vacuous", k)
					}
					if kept := k == 0 || tc.fits; kept != (n == 0 && f.Evals() == evals) {
						t.Fatalf("%s workers=%d: ResizeAll onto candidate %d re-evaluated %d gates, kept %v",
							d.Circuit.Name, workers, k, n, kept)
					}
					requireSameResult(t, "applied", f.Result(), oracle(d, vm, 12))
					f.Rollback()
					requireSameResult(t, "rolled back", f.Result(), before)
				}

				f.BatchWhatIf(cands, 3, workers)
				if n, _ := f.ResizeAll(slices.Concat(cands[0], cands[1])); n == 0 {
					t.Fatalf("workers=%d: ResizeAll onto both candidates' changes did not repair", workers)
				}
				requireSameResult(t, "repaired", f.Result(), oracle(d, vm, 12))
				f.Rollback()
			}
		}
	}
}

// TestResizeAllRevertIsRollback pins the revert path: a change list that
// exactly restores what the open transaction changed — here in reverse
// order, with a repeated gate — re-evaluates nothing, closes the
// transaction (a further Rollback moves nothing) and leaves the analysis
// bit-identical to the state before the move.
func TestResizeAllRevertIsRollback(t *testing.T) {
	d, vm := setupISCAS(t, "c880")
	before := oracle(d, vm, 12)
	sizes := d.Circuit.SizeSnapshot()
	f := NewFlat(d, vm, Options{Workers: 1})
	var move, back []SizeChange
	for _, g := range logicGates(d)[10:14] {
		s := d.Circuit.Gate(g).SizeIdx
		move = append(move, SizeChange{Gate: g, Size: (s + 1) % d.Lib.NumSizes(d.Kind(g))})
		back = append(back, SizeChange{Gate: g, Size: s})
	}
	back = append([]SizeChange{{Gate: back[3].Gate, Size: move[3].Size}}, reversed(back)...)
	if n, _ := f.ResizeAll(move); n == 0 {
		t.Fatal("the move re-evaluated nothing; the test is vacuous")
	}
	evals := f.Evals()
	if n, opened := f.ResizeAll(back); n != 0 || opened || f.Evals() != evals {
		t.Fatalf("reverting ResizeAll re-evaluated %d gates (opened %v)", n, opened)
	}
	requireSameResult(t, "reverted", f.Result(), before)
	f.Rollback()
	if !slices.Equal(d.Circuit.SizeSnapshot(), sizes) {
		t.Fatal("Rollback after a revert moved sizes")
	}
	requireSameResult(t, "rolled back after revert", f.Result(), before)
}

// reversed returns a reversed copy of list.
func reversed(list []SizeChange) []SizeChange {
	r := slices.Clone(list)
	slices.Reverse(r)
	return r
}

// conesFit is the reference for when BatchWhatIf keeps both candidates
// of a pair: their cones — each listed gate, its drivers and their
// transitive fanout — number at most the circuit's gates in total.
func conesFit(d *synth.Design, cands [][]SizeChange) bool {
	c := d.Circuit
	total := 0
	for _, ch := range cands {
		var seeds []circuit.GateID
		for _, x := range ch {
			seeds = append(seeds, x.Gate)
			seeds = append(seeds, c.Gate(x.Gate).Fanin...)
		}
		total += len(c.TransitiveFanout(seeds, -1))
	}
	return total <= c.NumGates()
}

// TestBatchWhatIfReusesOverlays pins the engine-owned overlays: once
// the engine's overlays exist, a batch allocates only its outcome slice
// and the sharding closure, independent of the circuit size.
func TestBatchWhatIfReusesOverlays(t *testing.T) {
	d, vm := setupISCAS(t, "c880")
	f := NewFlat(d, vm, Options{Workers: 1})
	cands := randomCandidates(rand.New(rand.NewSource(3)), d, 8)
	f.BatchWhatIf(cands, 3, 1)
	if n := testing.AllocsPerRun(10, func() { f.BatchWhatIf(cands, 3, 1) }); n > 2 {
		t.Fatalf("warm BatchWhatIf allocates %v per call, want <= 2", n)
	}
}
