package core

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/synth"
)

// collect runs an optimizer with a checkpoint collector installed and
// returns every emitted checkpoint.
type collector struct {
	cps []Checkpoint
}

func (c *collector) take(cp Checkpoint) { c.cps = append(c.cps, cp) }

// at returns the checkpoint whose Iter is the largest not exceeding
// iter — the one a crash shortly after that iteration would resume from.
func (c *collector) at(t *testing.T, iter int) Checkpoint {
	t.Helper()
	var best *Checkpoint
	for i := range c.cps {
		if c.cps[i].Iter <= iter && (best == nil || c.cps[i].Iter > best.Iter) {
			best = &c.cps[i]
		}
	}
	if best == nil {
		t.Fatalf("no checkpoint at or before iteration %d (have %d checkpoints)", iter, len(c.cps))
	}
	return *best
}

func cloneDesign(d *synth.Design) *synth.Design {
	return &synth.Design{Circuit: d.Circuit.Clone(), Lib: d.Lib}
}

func sizesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// roundTrip serializes a checkpoint through JSON, the form the server
// journals it in, so resume exactness is proven for the persisted form
// rather than the in-memory struct.
func roundTrip(t *testing.T, cp Checkpoint) Checkpoint {
	t.Helper()
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var out Checkpoint
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStatisticalGreedyResumeBitExact(t *testing.T) {
	c, err := gen.ISCASLike("alu2")
	if err != nil {
		t.Fatal(err)
	}
	d, vm := original(t, c)
	baseSizes := d.Circuit.SizeSnapshot()
	opts := Options{Lambda: 9, MaxIters: 12}

	// Uninterrupted reference run, collecting checkpoints.
	col := &collector{}
	ref := cloneDesign(d)
	refOpts := opts
	refOpts.Checkpoint = col.take
	refRes, err := StatisticalGreedy(ref, vm, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	refSizes := ref.Circuit.SizeSnapshot()
	if len(col.cps) < 3 {
		t.Fatalf("only %d checkpoints emitted over %d iterations", len(col.cps), refRes.Iterations)
	}
	for _, cp := range col.cps {
		if cp.Op != "statistical" || len(cp.Sizes) != len(baseSizes) {
			t.Fatalf("malformed checkpoint: %+v", cp)
		}
	}

	// "Crash" at several points and resume from the persisted (JSON
	// round-tripped) checkpoint on a fresh clone of the pre-optimization
	// design: the final sizing vector must be bit-identical.
	for _, crashAfter := range []int{1, 3, len(col.cps)} {
		cp := col.at(t, crashAfter)
		resumed := cloneDesign(d)
		resOpts := opts
		rt := roundTrip(t, cp)
		resOpts.Resume = &rt
		resRes, err := StatisticalGreedy(resumed, vm, resOpts)
		if err != nil {
			t.Fatalf("resume from iter %d: %v", cp.Iter, err)
		}
		if got := resumed.Circuit.SizeSnapshot(); !sizesEqual(got, refSizes) {
			t.Fatalf("resume from iter %d: sizing diverged from uninterrupted run", cp.Iter)
		}
		if resRes.Final.Cost != refRes.Final.Cost || resRes.Final.Sigma != refRes.Final.Sigma {
			t.Fatalf("resume from iter %d: final (%g, %g) != reference (%g, %g)",
				cp.Iter, resRes.Final.Cost, resRes.Final.Sigma, refRes.Final.Cost, refRes.Final.Sigma)
		}
		if resRes.Initial != refRes.Initial {
			t.Fatalf("resume from iter %d: initial snapshot %+v != %+v", cp.Iter, resRes.Initial, refRes.Initial)
		}
		if resRes.Iterations != refRes.Iterations {
			t.Fatalf("resume from iter %d: iterations %d != %d", cp.Iter, resRes.Iterations, refRes.Iterations)
		}
	}
}

func TestMeanDelayGreedyResumeBitExact(t *testing.T) {
	d, vm := setup(t, gen.ALU("alu", 8))
	opts := Options{MaxIters: 10}

	col := &collector{}
	ref := cloneDesign(d)
	refOpts := opts
	refOpts.Checkpoint = col.take
	if _, err := MeanDelayGreedy(ref, vm, refOpts); err != nil {
		t.Fatal(err)
	}
	refSizes := ref.Circuit.SizeSnapshot()
	if len(col.cps) == 0 {
		t.Fatal("no checkpoints emitted")
	}

	cp := roundTrip(t, col.at(t, 2))
	resumed := cloneDesign(d)
	resOpts := opts
	resOpts.Resume = &cp
	if _, err := MeanDelayGreedy(resumed, vm, resOpts); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Circuit.SizeSnapshot(); !sizesEqual(got, refSizes) {
		t.Fatal("mean-delay resume diverged from uninterrupted run")
	}
}

func TestRecoverAreaResumeBitExact(t *testing.T) {
	c, err := gen.ISCASLike("alu2")
	if err != nil {
		t.Fatal(err)
	}
	d, vm := original(t, c)
	if _, err := StatisticalGreedy(d, vm, Options{Lambda: 9, MaxIters: 8}); err != nil {
		t.Fatal(err)
	}
	opts := Options{Lambda: 9, SlackFrac: 0.02}

	col := &collector{}
	ref := cloneDesign(d)
	refOpts := opts
	refOpts.Checkpoint = col.take
	refRes, err := RecoverArea(ref, vm, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	refSaved := refRes.Initial.Area - refRes.Final.Area
	refSizes := ref.Circuit.SizeSnapshot()
	if len(col.cps) == 0 {
		t.Skip("recovery converged in a single pass; nothing to resume")
	}
	for _, cp := range col.cps {
		if cp.Op != "recover-area" || cp.Budget <= 0 || cp.Initial.Area <= 0 {
			t.Fatalf("malformed recover-area checkpoint: %+v", cp)
		}
	}

	cp := roundTrip(t, col.cps[0])
	resumed := cloneDesign(d)
	resOpts := opts
	resOpts.Resume = &cp
	resRes, err := RecoverArea(resumed, vm, resOpts)
	if err != nil {
		t.Fatal(err)
	}
	resSaved := resRes.Initial.Area - resRes.Final.Area
	if got := resumed.Circuit.SizeSnapshot(); !sizesEqual(got, refSizes) {
		t.Fatal("recover-area resume diverged from uninterrupted run")
	}
	if resSaved != refSaved {
		t.Fatalf("resumed run saved %g um^2, reference %g", resSaved, refSaved)
	}
}

// TestCheckpointEveryIteration pins the emission schedule of every
// backend: checkpoints numbered 1..n, one at the end of every outer
// iteration (pass) that ran to its end. For the greedy backends n is
// len(History); the area-recovery pass emits none for the pass that
// finds it has converged.
func TestCheckpointEveryIteration(t *testing.T) {
	mapped, vm := setup(t, gen.ALU("alu", 8))
	orig, _ := original(t, gen.ALU("alu", 8))
	for _, name := range Optimizers() {
		t.Run(name, func(t *testing.T) {
			d := cloneDesign(orig)
			if name == "meandelay" {
				d = cloneDesign(mapped)
			}
			o, _ := LookupOptimizer(name)
			col := &collector{}
			res, err := o.Run(d, vm, Options{Lambda: 9, MaxIters: 9, Checkpoint: col.take})
			if err != nil {
				t.Fatal(err)
			}
			want := len(res.History)
			if name == "recoverarea" {
				want = res.Iterations
				if res.StoppedBy == "converged" {
					want--
				}
			}
			if len(col.cps) != want || len(col.cps) == 0 {
				t.Fatalf("%d checkpoints, want %d (%d iterations, stopped by %s)",
					len(col.cps), want, res.Iterations, res.StoppedBy)
			}
			for i, cp := range col.cps {
				if cp.Iter != i+1 {
					t.Fatalf("checkpoint %d has iter %d, want %d", i, cp.Iter, i+1)
				}
			}
		})
	}
}

func TestResumeValidation(t *testing.T) {
	d, vm := setup(t, gen.ALU("alu", 8))
	sizes := d.Circuit.SizeSnapshot()

	// Wrong op.
	_, err := StatisticalGreedy(d, vm, Options{Resume: &Checkpoint{Op: "mean-delay", Sizes: sizes}})
	if err == nil || !strings.Contains(err.Error(), "resume checkpoint is for") {
		t.Fatalf("wrong-op resume accepted: %v", err)
	}
	// Wrong design shape.
	_, err = StatisticalGreedy(d, vm, Options{Resume: &Checkpoint{Op: "statistical", Sizes: sizes[:1]}})
	if err == nil || !strings.Contains(err.Error(), "sizes") {
		t.Fatalf("wrong-shape resume accepted: %v", err)
	}
	// Negative iteration.
	_, err = StatisticalGreedy(d, vm, Options{Resume: &Checkpoint{Op: "statistical", Sizes: sizes, Iter: -1}})
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative-iter resume accepted: %v", err)
	}
	// A best-seen sizing of the wrong length, or none for a greedy op.
	for _, best := range [][]int{sizes[:2], nil} {
		_, err = StatisticalGreedy(d, vm, Options{Resume: &Checkpoint{Op: "statistical", Sizes: sizes, BestSizes: best}})
		if err == nil || !strings.Contains(err.Error(), "best sizes") {
			t.Fatalf("best sizes of length %d accepted: %v", len(best), err)
		}
	}
	// A size index outside its gate's cell, in either sizing, and a
	// negative one.
	var logic int
	for i := range d.Circuit.Gates {
		if d.Circuit.Gates[i].Fn.IsLogic() {
			logic = i
			break
		}
	}
	bad := slices.Clone(sizes)
	bad[logic] = 99
	neg := slices.Clone(sizes)
	neg[logic] = -1
	for _, cp := range []*Checkpoint{
		{Op: "statistical", Sizes: bad, BestSizes: sizes},
		{Op: "statistical", Sizes: sizes, BestSizes: bad},
		{Op: "recover-area", Sizes: neg},
	} {
		run := StatisticalGreedy
		if cp.Op == "recover-area" {
			run = RecoverArea
		}
		_, err = run(d, vm, Options{Resume: cp})
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("out-of-range size accepted: %v", err)
		}
	}
	// Every rejection happened before the design was touched.
	if !slices.Equal(d.Circuit.SizeSnapshot(), sizes) {
		t.Fatal("a rejected resume moved the design's sizes")
	}
}
