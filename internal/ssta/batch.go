package ssta

import (
	"math"
	"slices"

	"repro/internal/circuit"
	"repro/internal/dpdf"
	"repro/internal/normal"
	"repro/internal/parallel"
)

// WhatIfOutcome is the circuit-level summary of one hypothetical sizing,
// bit-identical to what applying the changes (ResizeAll) and reading
// Result would produce — without the engine ever moving.
type WhatIfOutcome struct {
	// Mean and Sigma are the circuit-delay PDF moments under the
	// candidate sizing.
	Mean, Sigma float64
	// Cost is max over POs of mean + lambda*sigma (Result.Cost).
	Cost float64
	// MaxArrival is the deterministic circuit delay (sta.Result).
	MaxArrival float64
	// Touched counts node re-evaluations (the dirty-cone size).
	Touched int
	// Changed reports whether any node's timing actually moved; when
	// false the summary fields equal the clean analysis.
	Changed bool
}

// BatchWhatIf evaluates K candidate sizings against the engine's current
// analysis in one pass, sharing the clean cone prefix: the clean arena is
// read-only, each candidate repairs only its dirty cone into an
// engine-owned overlay arena, and neither the circuit nor the engine
// moves. Outcome summaries are bit-identical to applying each candidate
// via ResizeAll and reading Result (the differential tests pin this).
// Sizes in each candidate are absolute target size indices; gates
// already at the target are ignored. workers <= 0 means one per CPU;
// results do not depend on the worker count.
//
// With at least as many candidates as workers, candidates are sharded
// across workers, one overlay each. With fewer (the optimizer's one- or
// two-candidate probes), candidates run one at a time through a single
// overlay and each wide level of the candidate's cone fans out across
// the workers instead.
//
// The circuit's sizes must match the engine state (call Sync first if
// they were edited externally); BatchWhatIf panics otherwise, because the
// clean analysis it shares would silently be stale.
func (f *Flat) BatchWhatIf(cands [][]SizeChange, lambda float64, workers int) []WhatIfOutcome {
	f.checkRev()
	c := f.d.Circuit
	for id := range f.sizes {
		if c.Gate(circuit.GateID(id)).SizeIdx != f.sizes[id] {
			panic("ssta: circuit sizes diverge from engine state; Sync before BatchWhatIf")
		}
	}
	r := f.r
	clean := WhatIfOutcome{
		Mean:       r.Mean,
		Sigma:      r.Sigma,
		Cost:       r.Cost(f.d, lambda),
		MaxArrival: r.STA.MaxArrival,
	}
	outs := make([]WhatIfOutcome, len(cands))
	workers = parallel.Resolve(workers)
	sc := f.scratch(workers)
	if n := workers - len(f.overlays); n > 0 {
		f.overlays = append(f.overlays, make([]*whatIfWorker, n)...)
	}
	if len(cands) < workers {
		w := f.overlay(0)
		for i, ch := range cands {
			outs[i] = w.evaluate(ch, lambda, clean, sc)
		}
		return outs
	}
	parallel.ForEachWorker(workers, len(cands), func(wi, i int) {
		outs[i] = f.overlay(wi).evaluate(cands[i], lambda, clean, sc[wi:wi+1])
	})
	return outs
}

// overlay returns worker i's what-if overlay, creating it on first use;
// workers may call it concurrently for distinct i.
func (f *Flat) overlay(i int) *whatIfWorker {
	if f.overlays[i] == nil {
		f.overlays[i] = f.newWhatIfWorker()
	}
	return f.overlays[i]
}

// whatIfWorker is one overlay over the engine's clean analysis: sparse
// copy-on-write views of the deterministic arrays, the arrival-PDF
// arena, node moments, and size overrides. Overlay slots shadow the
// clean analysis; everything not marked dirty reads through to it.
// Reset is O(touched).
type whatIfWorker struct {
	f     *Flat
	queue *circuit.LevelQueue
	over  *dpdf.Arena // arrival PDFs; slot n = candidate circuit PDF
	// An overlay arena slot with Len > 0 shadows the clean arrival PDF;
	// staDirty marks shadowed deterministic values. Input gates set only
	// the latter (their statistical arrival is pinned at Point(0)).
	staDirty    []bool
	arr, slew   []float64
	mom         []normal.Moments
	touched     []circuit.GateID
	sizeOv      []int32 // -1 = no override
	sizeTouched []circuit.GateID

	// The level under repair and its computed evals, index-aligned, and
	// the scratches the current candidate computes with (one per worker).
	lvl         []circuit.GateID
	evs         []gateEval
	sc          []flatScratch
	computeNode func(w, i int) // compute over lvl[i], built once
}

func (f *Flat) newWhatIfWorker() *whatIfWorker {
	n := f.d.Circuit.NumGates()
	w := &whatIfWorker{
		f:        f,
		queue:    circuit.NewLevelQueue(n),
		over:     dpdf.NewArena(n+1, f.pts),
		staDirty: make([]bool, n),
		arr:      make([]float64, n),
		slew:     make([]float64, n),
		mom:      make([]normal.Moments, n),
		sizeOv:   make([]int32, n),
	}
	for i := range w.sizeOv {
		w.sizeOv[i] = -1
	}
	w.computeNode = func(wk, i int) { w.evs[i] = w.compute(&w.sc[wk], w.lvl[i]) }
	return w
}

// reset clears the overlay back to the clean state in O(touched).
func (w *whatIfWorker) reset() {
	for _, id := range w.touched {
		w.staDirty[id] = false
		w.over.Clear(int(id))
	}
	w.touched = w.touched[:0]
	for _, id := range w.sizeTouched {
		w.sizeOv[id] = -1
	}
	w.sizeTouched = w.sizeTouched[:0]
}

func (w *whatIfWorker) staArrival(id circuit.GateID) float64 {
	if w.staDirty[id] {
		return w.arr[id]
	}
	return w.f.r.STA.Arrival[id]
}

func (w *whatIfWorker) staSlew(id circuit.GateID) float64 {
	if w.staDirty[id] {
		return w.slew[id]
	}
	return w.f.r.STA.Slew[id]
}

func (w *whatIfWorker) arrival(id circuit.GateID) dpdf.PDF {
	if w.over.Len(int(id)) > 0 {
		return w.over.View(int(id))
	}
	return w.f.arena.View(int(id))
}

func (w *whatIfWorker) moments(id circuit.GateID) normal.Moments {
	if w.over.Len(int(id)) > 0 {
		return w.mom[id]
	}
	return w.f.r.Node[id]
}

func (w *whatIfWorker) size(id circuit.GateID) int {
	if s := w.sizeOv[id]; s >= 0 {
		return int(s)
	}
	return w.f.d.Circuit.Gate(id).SizeIdx
}

// load mirrors synth.Design.Load under the candidate's size overrides:
// fanout input caps in fanout order, then the PO load — bit-identical
// when no override applies.
func (w *whatIfWorker) load(id circuit.GateID) float64 {
	d := w.f.d
	load := 0.0
	for _, fo := range d.Circuit.Gate(id).Fanout {
		load += d.CellAt(fo, w.size(fo)).InputCap
	}
	if d.Circuit.IsOutput(id) {
		load += d.Lib.PrimaryOutputLoad
	}
	return load
}

// markDirty shadows id's deterministic values in the overlay.
func (w *whatIfWorker) markDirty(id circuit.GateID) {
	if !w.staDirty[id] {
		w.staDirty[id] = true
		w.touched = append(w.touched, id)
	}
}

// evaluate runs one candidate through the overlay: seed the dirty set,
// repair level-ordered with the engine's exact cutoff, summarize. Each
// level is computed on len(sc) workers (forLevel) and then committed
// serially in pop order, so the outcome does not depend on len(sc).
func (w *whatIfWorker) evaluate(changes []SizeChange, lambda float64, clean WhatIfOutcome, sc []flatScratch) WhatIfOutcome {
	f := w.f
	c := f.d.Circuit
	w.sc = sc
	for _, ch := range changes {
		if c.Gate(ch.Gate).SizeIdx == ch.Size && w.sizeOv[ch.Gate] < 0 {
			continue
		}
		if w.sizeOv[ch.Gate] < 0 {
			w.sizeTouched = append(w.sizeTouched, ch.Gate)
		}
		w.sizeOv[ch.Gate] = int32(ch.Size)
		w.queue.Push(ch.Gate, f.level[ch.Gate])
		for _, fid := range c.Gate(ch.Gate).Fanin {
			w.queue.Push(fid, f.level[fid])
		}
	}
	touched := 0
	anyChanged := false
	for {
		w.lvl = w.queue.PopLevel(w.lvl[:0])
		if len(w.lvl) == 0 {
			break
		}
		w.evs = slices.Grow(w.evs[:0], len(w.lvl))[:len(w.lvl)]
		forLevel(len(sc), len(w.lvl), w.computeNode)
		touched += len(w.lvl)
		for i, id := range w.lvl {
			if w.commit(id, &w.evs[i]) {
				anyChanged = true
				for _, fo := range c.Gate(id).Fanout {
					w.queue.Push(fo, f.level[fo])
				}
			}
		}
	}
	out := clean
	out.Touched = touched
	out.Changed = anyChanged
	if anyChanged {
		maxArr, _, m := f.summarize(w, &sc[0], w.over, c.NumGates())
		out.Mean = m.Mean
		out.Sigma = math.Sqrt(m.Var)
		out.MaxArrival = maxArr
		out.Cost = cost(c.Outputs, w, lambda)
	}
	w.reset()
	return out
}

// compute re-derives one node through the engine's eval, writing only
// the node's own overlay arena slot; everything else it reads (fanin
// values, sizes, loads) belongs to lower levels or to the candidate, so
// the nodes of one level can be computed concurrently. For a primary
// input only the deterministic arrival and slew move.
func (w *whatIfWorker) compute(sc *flatScratch, id circuit.GateID) gateEval {
	f := w.f
	d := f.d
	g := d.Circuit.Gate(id)
	if g.Fn == circuit.Input {
		return gateEval{
			arrival: d.Lib.PrimaryInputRes * w.load(id),
			slew:    d.Lib.PrimaryInputSlew,
		}
	}
	var fArr, fSlew float64
	sc.ops = sc.ops[:0]
	for _, fid := range g.Fanin {
		if a := w.staArrival(fid); a > fArr {
			fArr = a
		}
		if s := w.staSlew(fid); s > fSlew {
			fSlew = s
		}
		sc.ops = append(sc.ops, w.arrival(fid))
	}
	return f.eval(sc, w.over, int(id), d.CellAt(id, w.size(id)), w.load(id), fArr, fSlew)
}

// commit records a computed node in the overlay and reports whether it
// changed; "changed" compares against the clean analysis (each node is
// visited at most once per candidate, so the clean value IS the
// previous value).
func (w *whatIfWorker) commit(id circuit.GateID, e *gateEval) bool {
	f := w.f
	changed := e.arrival != w.staArrival(id) || e.slew != w.staSlew(id)
	if f.d.Circuit.Gate(id).Fn != circuit.Input {
		slot := int(id)
		changed = changed || !w.over.Equal(slot, f.arena.View(slot))
		w.mom[id] = e.node
	}
	w.markDirty(id)
	w.arr[id] = e.arrival
	w.slew[id] = e.slew
	return changed
}
