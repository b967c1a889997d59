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

// BatchWhatIf evaluates K candidate sizings against the engine's current
// analysis in one pass, sharing the clean cone prefix: the clean arena is
// read-only, each candidate repairs only its dirty cone into a per-worker
// overlay arena, and neither the circuit nor the engine moves. Outcome
// summaries are bit-identical to applying each candidate via ResizeAll
// and reading Result (the differential tests pin this). Sizes in each
// candidate are absolute target size indices; gates already at the
// target are ignored. workers <= 0 means one per CPU; results do not
// depend on the worker count.
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
	workers = min(parallel.Resolve(workers), len(cands))
	state := make([]*whatIfWorker, workers)
	parallel.ForEachWorker(workers, len(cands), func(wi, i int) {
		if state[wi] == nil {
			state[wi] = f.newWhatIfWorker()
		}
		outs[i] = state[wi].evaluate(cands[i], lambda, clean)
	})
	return outs
}

// whatIfWorker is one worker's overlay over the engine's clean
// analysis: sparse copy-on-write views of the deterministic arrays, the
// arrival-PDF arena, node moments, and size overrides. Overlay slots
// shadow the clean analysis; everything not marked dirty reads through
// to it. Reset is O(touched).
type whatIfWorker struct {
	f     *Flat
	sc    flatScratch
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
// repair level-ordered with the engine's exact cutoff, summarize.
func (w *whatIfWorker) evaluate(changes []SizeChange, lambda float64, clean WhatIfOutcome) WhatIfOutcome {
	f := w.f
	c := f.d.Circuit
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
		id, ok := w.queue.Pop()
		if !ok {
			break
		}
		touched++
		if w.recompute(id) {
			anyChanged = true
			for _, fo := range c.Gate(id).Fanout {
				w.queue.Push(fo, f.level[fo])
			}
		}
	}
	out := clean
	out.Touched = touched
	out.Changed = anyChanged
	if anyChanged {
		maxArr, _, m := f.summarize(w, &w.sc, w.over, c.NumGates())
		out.Mean = m.Mean
		out.Sigma = math.Sqrt(m.Var)
		out.MaxArrival = maxArr
		out.Cost = cost(c.Outputs, w, lambda)
	}
	w.reset()
	return out
}

// recompute re-derives one node into the overlay through the engine's
// eval; "changed" compares against the clean analysis (each node is
// visited at most once per candidate, so the clean value IS the
// previous value).
func (w *whatIfWorker) recompute(id circuit.GateID) bool {
	f := w.f
	d := f.d
	g := d.Circuit.Gate(id)
	if g.Fn == circuit.Input {
		newArr := d.Lib.PrimaryInputRes * w.load(id)
		newSlew := d.Lib.PrimaryInputSlew
		changed := newArr != w.staArrival(id) || newSlew != w.staSlew(id)
		w.markDirty(id)
		w.arr[id] = newArr
		w.slew[id] = newSlew
		return changed
	}
	var fArr, fSlew float64
	w.sc.ops = w.sc.ops[:0]
	for _, fid := range g.Fanin {
		if a := w.staArrival(fid); a > fArr {
			fArr = a
		}
		if s := w.staSlew(fid); s > fSlew {
			fSlew = s
		}
		w.sc.ops = append(w.sc.ops, w.arrival(fid))
	}
	slot := int(id)
	e := f.eval(&w.sc, w.over, slot, d.CellAt(id, w.size(id)), w.load(id), fArr, fSlew)
	changed := e.arrival != w.staArrival(id) || e.slew != w.staSlew(id) ||
		!w.over.Equal(slot, f.arena.View(slot))
	w.markDirty(id)
	w.arr[id] = e.arrival
	w.slew[id] = e.slew
	w.mom[id] = e.node
	return changed
}
