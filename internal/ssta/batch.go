package ssta

import (
	"math"

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

// keepMax is the largest batch whose candidates BatchWhatIf keeps for
// adoption by the next ResizeAll: the optimizer's move pair.
const keepMax = 2

// BatchWhatIf evaluates K candidate sizings against the engine's current
// analysis in one pass, sharing the clean cone prefix: the clean arena is
// read-only, each candidate repairs only its dirty cone into an
// engine-owned overlay, and neither the circuit nor the engine moves.
// Outcome summaries are bit-identical to applying each candidate via
// ResizeAll and reading Result (the differential tests pin this).
// Sizes in each candidate are absolute target size indices against the
// engine's sizing; gates already at the target are ignored. workers <= 0
// means one per CPU; results do not depend on the worker count.
//
// A batch of at most two candidates (the optimizer's move pair or a
// single probe) keeps its overlays populated: the next ResizeAll whose
// effective changes equal a kept candidate's adopts that overlay instead
// of repairing the cone again, and any other state-changing call (a
// ResizeAll to any other sizing, Rollback, Recompute, the next
// BatchWhatIf) drops the kept overlays. A single candidate fans its wide
// levels out across all workers. A pair whose cones (each listed gate,
// its drivers and their transitive fanout) together fit within the
// circuit's gate count gives each candidate its own overlay, so the two
// never hold more than one overlay of every gate would; with workers >=
// 2 they run concurrently, each fanning its wide levels out over half of
// the workers. A pair that may not fit runs one candidate after the
// other through one overlay and keeps only the first. Larger batches
// keep nothing: with at least as many candidates as workers they are
// sharded across workers, one overlay each, and otherwise they run one
// at a time through one overlay with each wide level fanned out.
//
// The circuit's sizes must match the engine's record (in-place edits go
// to ResizeAll first); BatchWhatIf panics otherwise, because the clean
// analysis it shares would silently be stale.
func (f *Flat) BatchWhatIf(cands [][]SizeChange, lambda float64, workers int) []WhatIfOutcome {
	f.checkRev()
	c := f.d.Circuit
	for id := range f.sizes {
		if c.Gate(circuit.GateID(id)).SizeIdx != f.sizes[id] {
			panic("ssta: circuit sizes diverge from engine state; ResizeAll before BatchWhatIf")
		}
	}
	f.dropKept()
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
	if n := max(workers, keepMax) - len(f.overlays); n > 0 {
		f.overlays = append(f.overlays, make([]*whatIfWorker, n)...)
	}
	fits := len(cands) == keepMax && f.pairFits(cands)
	switch {
	case fits && workers >= keepMax:
		per := workers / keepMax
		parallel.ForEachWorker(keepMax, keepMax, func(_, i int) {
			outs[i] = f.overlay(i).evaluate(cands[i], lambda, clean, sc[i*per:(i+1)*per], true)
		})
	case fits || len(cands) == 1:
		for i, ch := range cands {
			outs[i] = f.overlay(i).evaluate(ch, lambda, clean, sc, true)
		}
	case len(cands) == keepMax:
		w := f.overlay(0)
		outs[1] = w.evaluate(cands[1], lambda, clean, sc, false)
		outs[0] = w.evaluate(cands[0], lambda, clean, sc, true)
	case len(cands) < workers:
		w := f.overlay(0)
		for i, ch := range cands {
			outs[i] = w.evaluate(ch, lambda, clean, sc, false)
		}
	default:
		parallel.ForEachWorker(workers, len(cands), func(wi, i int) {
			outs[i] = f.overlay(wi).evaluate(cands[i], lambda, clean, sc[wi:wi+1], false)
		})
	}
	return outs
}

// pairFits reports whether the candidates' cones — the gates their
// evaluations can touch: each listed gate, its drivers and everything
// downstream of them — number at most the circuit's gates in total, so
// that their overlays together never hold more slots than one overlay
// of every gate would.
func (f *Flat) pairFits(cands [][]SizeChange) bool {
	c := f.d.Circuit
	budget := c.NumGates()
	if f.inCone == nil {
		f.inCone = make([]bool, budget)
	}
	for _, ch := range cands {
		f.cone = f.cone[:0]
		for _, x := range ch {
			f.cone = f.markCone(x.Gate, f.cone)
			for _, fid := range c.Gate(x.Gate).Fanin {
				f.cone = f.markCone(fid, f.cone)
			}
		}
		for i := 0; i < len(f.cone) && len(f.cone) <= budget; i++ {
			for _, fo := range c.Gate(f.cone[i]).Fanout {
				f.cone = f.markCone(fo, f.cone)
			}
		}
		for _, id := range f.cone {
			f.inCone[id] = false
		}
		if budget -= len(f.cone); budget < 0 {
			return false
		}
	}
	return true
}

// markCone appends id to cone unless it is already marked.
func (f *Flat) markCone(id circuit.GateID, cone []circuit.GateID) []circuit.GateID {
	if f.inCone[id] {
		return cone
	}
	f.inCone[id] = true
	return append(cone, id)
}

// overlay returns what-if overlay i, creating it on first use; workers
// may call it concurrently for distinct i.
func (f *Flat) overlay(i int) *whatIfWorker {
	if f.overlays[i] == nil {
		f.overlays[i] = f.newWhatIfWorker()
	}
	return f.overlays[i]
}

// dropKept clears the overlays the last small batch kept for adoption.
func (f *Flat) dropKept() {
	for _, w := range f.overlays {
		if w != nil && w.kept {
			w.reset()
		}
	}
}

// adopt commits kept overlay w into the engine's analysis — every node
// its candidate re-evaluated, then the circuit summary — journaling each
// node first, inside the transaction the caller opened. The overlay
// holds exactly the values a repair of the same changes would compute.
func (f *Flat) adopt(w *whatIfWorker) {
	c := f.d.Circuit
	r := f.r
	for s := 1; s < len(w.ids); s++ {
		id := w.ids[s]
		f.save(id)
		v := &w.vals[s]
		r.STA.Arrival[id] = v.arrival
		r.STA.Slew[id] = v.slew
		g := c.Gate(id)
		if g.Fn == circuit.Input {
			continue // only the deterministic view of an input moves
		}
		// Slots run in level order, so every fanin already holds its
		// adopted value: the input slew is the one compute saw.
		inSlew := 0.0
		for _, fid := range g.Fanin {
			if sl := r.STA.Slew[fid]; sl > inSlew {
				inSlew = sl
			}
		}
		r.STA.InSlew[id] = inSlew
		r.STA.Delay[id] = v.gateDelay.Mean
		r.GateDelay[id] = v.gateDelay
		r.Node[id] = w.over.Moments(s)
		f.arena.Set(int(id), w.over.View(s))
	}
	if w.out.Changed {
		top := c.NumGates()
		f.arena.Set(top, w.over.View(0))
		r.CircuitPDF = f.arena.View(top)
		r.Mean, r.Sigma = w.out.Mean, w.out.Sigma
		r.STA.MaxArrival, r.STA.WorstPO = w.out.MaxArrival, w.worstPO
	}
}

// whatIfWorker is one overlay over the engine's clean analysis. It is
// compact: a gate→slot index, and slots only for the nodes the current
// candidate re-evaluated, each holding the node's slotVals and (in arena
// slot s of over) its arrival PDF; arena slot 0 holds the candidate's
// circuit PDF. Everything without a slot reads through to the clean
// analysis. Reset is O(touched).
type whatIfWorker struct {
	f     *Flat
	queue *circuit.LevelQueue
	slot  []int32          // gate → slot; 0 = reads through to the clean analysis
	ids   []circuit.GateID // slot → gate; ids[0] is unused
	vals  []slotVals       // slot → computed values; vals[0] is unused
	// over holds the arrival PDFs by slot. An input's slot is empty: its
	// statistical arrival is pinned at Point(0) and reads through.
	over        *dpdf.Arena
	sizeOv      []int32 // -1 = no override
	sizeTouched []circuit.GateID

	// kept marks an overlay left populated for adoption, with its
	// candidate's outcome and worst PO.
	kept    bool
	out     WhatIfOutcome
	worstPO circuit.GateID

	// The level under repair and the scratches the current candidate
	// computes with (one per worker).
	lvl         []circuit.GateID
	sc          []flatScratch
	computeNode func(w, i int) // compute over lvl[i], built once
}

func (f *Flat) newWhatIfWorker() *whatIfWorker {
	n := f.d.Circuit.NumGates()
	w := &whatIfWorker{
		f:      f,
		queue:  circuit.NewLevelQueue(n),
		slot:   make([]int32, n),
		ids:    []circuit.GateID{circuit.None},
		vals:   make([]slotVals, 1),
		over:   dpdf.NewArena(1, f.pts),
		sizeOv: make([]int32, n),
	}
	for i := range w.sizeOv {
		w.sizeOv[i] = -1
	}
	w.computeNode = func(wk, i int) {
		id := w.lvl[i]
		s := w.slot[id]
		e := w.compute(&w.sc[wk], id, int(s))
		w.vals[s] = slotVals{arrival: e.arrival, slew: e.slew, gateDelay: e.gateDelay}
	}
	return w
}

// slotVals is what an overlay slot keeps besides its arrival PDF: the
// values fanouts read and adoption needs that cannot be re-derived
// from the PDF and the fanins. Node moments are the PDF's moments, and
// the input slew is the worst fanin slew.
type slotVals struct {
	arrival, slew float64
	gateDelay     normal.Moments
}

// reset clears the overlay back to the clean state in O(touched).
func (w *whatIfWorker) reset() {
	for _, id := range w.ids[1:] {
		w.slot[id] = 0
	}
	w.ids = w.ids[:1]
	w.vals = w.vals[:1]
	for _, id := range w.sizeTouched {
		w.sizeOv[id] = -1
	}
	w.sizeTouched = w.sizeTouched[:0]
	w.kept = false
}

// proposes reports whether the overlay's candidate sizing is the one a
// ResizeAll has staged in the engine's record: every override sits at
// the record's new size, and every staged gate has an override. An
// override of a gate not staged must then equal its unchanged size, so
// candidate no-op entries do not stop an adoption.
func (w *whatIfWorker) proposes(staged []sizeSave) bool {
	for _, g := range w.sizeTouched {
		if int(w.sizeOv[g]) != w.f.sizes[g] {
			return false
		}
	}
	for _, s := range staged {
		if w.sizeOv[s.id] < 0 {
			return false
		}
	}
	return true
}

func (w *whatIfWorker) staArrival(id circuit.GateID) float64 {
	if s := w.slot[id]; s > 0 {
		return w.vals[s].arrival
	}
	return w.f.r.STA.Arrival[id]
}

func (w *whatIfWorker) staSlew(id circuit.GateID) float64 {
	if s := w.slot[id]; s > 0 {
		return w.vals[s].slew
	}
	return w.f.r.STA.Slew[id]
}

func (w *whatIfWorker) arrival(id circuit.GateID) dpdf.PDF {
	if s := int(w.slot[id]); s > 0 && w.over.Len(s) > 0 {
		return w.over.View(s)
	}
	return w.f.arena.View(int(id))
}

func (w *whatIfWorker) moments(id circuit.GateID) normal.Moments {
	if s := int(w.slot[id]); s > 0 && w.over.Len(s) > 0 {
		return w.over.Moments(s)
	}
	return w.f.r.Node[id]
}

func (w *whatIfWorker) size(id circuit.GateID) int {
	if s := w.sizeOv[id]; s >= 0 {
		return int(s)
	}
	return w.f.sizes[id]
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

// evaluate runs one candidate through the overlay: seed the dirty set,
// repair level-ordered with the engine's exact cutoff, summarize. Each
// level gets its slots serially, is computed on len(sc) workers
// (forLevel), and is then tested serially in pop order, so the outcome
// does not depend on len(sc). With keep the overlay stays populated for
// adoption; otherwise it is reset.
func (w *whatIfWorker) evaluate(changes []SizeChange, lambda float64, clean WhatIfOutcome, sc []flatScratch, keep bool) WhatIfOutcome {
	f := w.f
	c := f.d.Circuit
	nominal := f.r.STA
	w.sc = sc
	for _, ch := range changes {
		if f.sizes[ch.Gate] == ch.Size && w.sizeOv[ch.Gate] < 0 {
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
	anyChanged := false
	for {
		w.lvl = w.queue.PopLevel(w.lvl[:0])
		if len(w.lvl) == 0 {
			break
		}
		for _, id := range w.lvl {
			w.slot[id] = int32(len(w.ids))
			w.ids = append(w.ids, id)
			w.vals = append(w.vals, slotVals{})
		}
		w.over.Grow(len(w.ids))
		forLevel(len(sc), len(w.lvl), w.computeNode)
		// Each node is visited at most once per candidate, so the clean
		// analysis holds its previous value.
		for _, id := range w.lvl {
			s := int(w.slot[id])
			e := &w.vals[s]
			changed := e.arrival != nominal.Arrival[id] || e.slew != nominal.Slew[id]
			if c.Gate(id).Fn != circuit.Input {
				changed = changed || !w.over.Equal(s, f.arena.View(int(id)))
			}
			if changed {
				anyChanged = true
				for _, fo := range c.Gate(id).Fanout {
					w.queue.Push(fo, f.level[fo])
				}
			}
		}
	}
	out := clean
	out.Touched = len(w.ids) - 1
	out.Changed = anyChanged
	if anyChanged {
		var m normal.Moments
		out.MaxArrival, w.worstPO, m = f.summarize(w, &sc[0], w.over, 0)
		out.Mean = m.Mean
		out.Sigma = math.Sqrt(m.Var)
		out.Cost = cost(c.Outputs, w, lambda)
	}
	if keep {
		w.kept, w.out = true, out
	} else {
		w.reset()
	}
	return out
}

// compute re-derives one node through the engine's eval into overlay
// slot s, writing only that slot; everything else it reads (fanin
// values, sizes, loads) belongs to lower levels or to the candidate, so
// the nodes of one level can be computed concurrently. For a primary
// input only the deterministic arrival and slew move, and its slot
// stays empty.
func (w *whatIfWorker) compute(sc *flatScratch, id circuit.GateID, s int) gateEval {
	f := w.f
	d := f.d
	g := d.Circuit.Gate(id)
	if g.Fn == circuit.Input {
		w.over.Clear(s)
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
		if sl := w.staSlew(fid); sl > fSlew {
			fSlew = sl
		}
		sc.ops = append(sc.ops, w.arrival(fid))
	}
	return f.eval(sc, w.over, s, d.CellAt(id, w.size(id)), w.load(id), fArr, fSlew)
}
