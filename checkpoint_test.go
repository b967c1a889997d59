package repro

import (
	"encoding/json"
	"testing"
)

// collectCheckpoints runs the statistical optimizer on a fresh alu2,
// capturing every emitted checkpoint, and returns them with the
// finished design and result.
func collectCheckpoints(t *testing.T, opts RunOptions) ([]OptCheckpoint, *Design, OptResult) {
	t.Helper()
	d, err := Generate("alu2")
	if err != nil {
		t.Fatal(err)
	}
	var cps []OptCheckpoint
	opts.Checkpoint = func(cp OptCheckpoint) { cps = append(cps, cp) }
	res, err := d.Optimize(9, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cps, d, res
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

// TestCheckpointResumeBitExact is the facade-level statement of the
// resume contract: restarting from any mid-run checkpoint retraces the
// uninterrupted run bit-for-bit (same final sizing vector, same
// result), because every emitted checkpoint IS the loop-top state of
// the next iteration.
func TestCheckpointResumeBitExact(t *testing.T) {
	base := RunOptions{Workers: 1, MaxIters: 8}
	cps, ref, want := collectCheckpoints(t, base)
	if len(cps) < 3 {
		t.Fatalf("only %d checkpoints emitted, want at least 3", len(cps))
	}
	wantSizes := ref.Sizes()

	// Resume from an early and a late checkpoint; serialize through
	// JSON first, the way sstad's journal stores them.
	for _, idx := range []int{1, len(cps) - 2} {
		raw, err := json.Marshal(cps[idx])
		if err != nil {
			t.Fatal(err)
		}
		var cp OptCheckpoint
		if err := json.Unmarshal(raw, &cp); err != nil {
			t.Fatal(err)
		}

		d2, err := Generate("alu2")
		if err != nil {
			t.Fatal(err)
		}
		opts := base
		opts.Resume = &cp
		got, err := d2.Optimize(9, opts)
		if err != nil {
			t.Fatalf("resume from checkpoint %d: %v", idx, err)
		}
		if !sizesEqual(d2.Sizes(), wantSizes) {
			t.Fatalf("resume from checkpoint %d: sizing vector diverged from uninterrupted run", idx)
		}
		if got.Iterations != want.Iterations || got.StoppedBy != want.StoppedBy ||
			got.SigmaAfter != want.SigmaAfter || got.MeanAfter != want.MeanAfter ||
			got.AreaAfter != want.AreaAfter {
			t.Fatalf("resume from checkpoint %d: result differs\nresumed: %+v\ndirect:  %+v", idx, got, want)
		}
	}
}

// TestSizesIsACopy guards the equality oracle: mutating the returned
// slice must not touch the design.
func TestSizesIsACopy(t *testing.T) {
	d, err := Generate("alu1")
	if err != nil {
		t.Fatal(err)
	}
	s := d.Sizes()
	if len(s) == 0 {
		t.Fatal("empty sizing vector")
	}
	s[0] += 7
	if d.Sizes()[0] == s[0] {
		t.Fatal("Sizes returned a view into the design, want a copy")
	}
}

// TestRecoverAreaCheckpoints: the area-recovery pass reports resumable
// checkpoints too (sstad journals them for its optimize jobs).
func TestRecoverAreaCheckpoints(t *testing.T) {
	d, err := Generate("alu2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Optimize(9, RunOptions{Workers: 1, MaxIters: 6}); err != nil {
		t.Fatal(err)
	}
	var cps []OptCheckpoint
	if _, err := d.Optimize(9, RunOptions{
		Optimizer:  "recoverarea",
		SlackFrac:  0.05,
		Workers:    1,
		Checkpoint: func(cp OptCheckpoint) { cps = append(cps, cp) },
	}); err != nil {
		t.Fatal(err)
	}
	for _, cp := range cps {
		if cp.Op != "recover-area" {
			t.Fatalf("recover checkpoint op = %q, want recover-area", cp.Op)
		}
	}
}

func TestOptResultDeltas(t *testing.T) {
	r := OptResult{
		MeanBefore: 200, MeanAfter: 210,
		SigmaBefore: 10, SigmaAfter: 8,
		AreaBefore: 100, AreaAfter: 125,
	}
	if got := r.DeltaSigmaPct(); got != -20 {
		t.Fatalf("DeltaSigmaPct = %v, want -20", got)
	}
	if got := r.DeltaMeanPct(); got != 5 {
		t.Fatalf("DeltaMeanPct = %v, want 5", got)
	}
	if got := r.DeltaAreaPct(); got != 25 {
		t.Fatalf("DeltaAreaPct = %v, want 25", got)
	}
	var zero OptResult
	if zero.DeltaSigmaPct() != 0 || zero.DeltaMeanPct() != 0 || zero.DeltaAreaPct() != 0 {
		t.Fatal("zero-value deltas must be 0, not NaN")
	}
}

// parentCheckpointJSON is a checkpoint as the facade serialized it
// before OptCheckpoint became an alias of core.Checkpoint: iteration 2
// of Optimize(9, RunOptions{Workers: 1, MaxIters: 4}) on alu1 after
// OptimizeMeanDelay. sstad journals hold checkpoints in this form.
const parentCheckpointJSON = `{"op":"statistical","iter":2,"cost":1515.748187878935,"sizes":[0,0,0,0,0,0,0,0,0,0,0,0,` +
	`0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,` +
	`0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,` +
	`0,0,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,` +
	`0,1,0,1,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2,0,0,0,` +
	`0,1,0,0,2,0,0,0,0,0,0,2,0,1,1,1,0,0,0,2,0,0,0,0,3,1,0,0,0,1,2,2,3,0,1,0,0,1,2,2,3,0,1,2,` +
	`2,4,0,1,2,2,1,2,2,3,2,0,0,0,1,2,2,3,2,1,2,2,3,0,1,2,2,2,1,2,1,1,1,2,1,2,2,1,3,2],` +
	`"best_sizes":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,` +
	`0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,` +
	`0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,` +
	`0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,1,0,1,0,1,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,` +
	`0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,1,0,0,2,0,0,0,0,0,0,1,0,1,1,1,0,0,0,2,0,0,0,0,2,` +
	`1,0,0,0,1,1,1,2,0,1,0,0,1,1,1,2,0,1,1,1,3,0,1,1,1,1,1,1,2,1,0,0,0,1,1,1,2,1,1,1,1,2,0,1,` +
	`1,1,1,1,1,1,1,1,1,1,1,1,1,2,2],"best":{"mean":1043.2659769621193,` +
	`"sigma":42.623903911350936,"cost":1547.413523163044,"area":912.3519999999994},"bad":0,` +
	`"initial":{"mean":1011.866124312423,"sigma":53.754863703917955,"cost":1650.205813172296,` +
	`"area":719.2639999999992}}`

// TestCheckpointJSONCompatible pins the persisted checkpoint format: a
// journaled checkpoint decodes, re-marshals byte-identical, and resumes
// to the uninterrupted run's sizing and result.
func TestCheckpointJSONCompatible(t *testing.T) {
	var cp OptCheckpoint
	if err := json.Unmarshal([]byte(parentCheckpointJSON), &cp); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != parentCheckpointJSON {
		t.Fatalf("re-marshaled checkpoint differs:\ngot  %s\nwant %s", raw, parentCheckpointJSON)
	}

	run := func(resume *OptCheckpoint) (*Design, OptResult) {
		d, err := Generate("alu1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.OptimizeMeanDelay(); err != nil {
			t.Fatal(err)
		}
		res, err := d.Optimize(9, RunOptions{Workers: 1, MaxIters: 4, Resume: resume})
		if err != nil {
			t.Fatal(err)
		}
		return d, res
	}
	ref, want := run(nil)
	resumed, got := run(&cp)
	if !sizesEqual(resumed.Sizes(), ref.Sizes()) {
		t.Fatal("resumed sizing diverged from the uninterrupted run")
	}
	if got.Iterations != want.Iterations || got.StoppedBy != want.StoppedBy ||
		got.MeanBefore != want.MeanBefore || got.SigmaBefore != want.SigmaBefore ||
		got.MeanAfter != want.MeanAfter || got.SigmaAfter != want.SigmaAfter ||
		got.AreaAfter != want.AreaAfter {
		t.Fatalf("resumed result differs\nresumed: %+v\ndirect:  %+v", got, want)
	}
}
