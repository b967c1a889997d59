package ssta

import (
	"math"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/dpdf"
	"repro/internal/normal"
	"repro/internal/parallel"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// Flat is the FULLSSTA engine. Every node PDF is stored in one
// contiguous dpdf.Arena (structure-of-arrays, fixed stride) and the full
// analysis walks precomputed level buckets front to back — no per-gate
// PDF allocation, no pointer chasing through heap-scattered slices. One
// per-gate step (step, eval) serves the full recompute, the dirty-cone
// repair of Resize/ResizeAll with its Rollback journal
// (incremental.go), and the what-if overlays of BatchWhatIf (batch.go).
//
// A Flat is bound to the circuit structure at construction and panics
// if the structure changes. It is not safe for concurrent use, but with
// Workers > 1 the full recompute, the dirty-cone repair and the what-if
// overlays all parallelize internally over level barriers with
// bit-identical results (see forLevel).
type Flat struct {
	d       *synth.Design
	vm      *variation.Model
	pts     int
	workers int
	rev     int

	r     *Result     // engine-owned, updated in place
	arena *dpdf.Arena // NumGates()+1 slots; the last is the circuit PDF
	sizes []int       // the sizes the analysis reflects

	level   []int32
	buckets [][]circuit.GateID // every gate, by topological level
	sc      []flatScratch      // one per worker

	// Dirty-cone repair state, allocated by the first transaction.
	queue      *circuit.LevelQueue
	evals      []int64
	totalEvals int64
	lvl        []circuit.GateID // the level under repair, in pop order
	stepLevel  func(w, i int)   // step over lvl[i], built once so dispatch allocates nothing

	// What-if overlays, created lazily by BatchWhatIf: one per worker
	// and at least two, each reset in O(touched) after its candidate or,
	// for a batch of at most two, kept until the next ResizeAll adopts one
	// or another state-changing call drops them.
	overlays []*whatIfWorker
	inCone   []bool           // pairFits' visit marks, all false between calls
	cone     []circuit.GateID // pairFits' visit list

	// Transaction journal: every repaired node's prior state, in repair
	// order, with its arrival PDF in jarena slot index+1 (slot 0 holds
	// the circuit PDF), plus the size edits, one per gate, and the
	// circuit summary. A transaction is open while sizeLog is non-empty.
	journal []nodeSave
	jarena  *dpdf.Arena
	sizeLog []sizeSave
	summary summarySave
}

// flatScratch is one worker's reusable state: kernel buffers plus a
// fanin-view gather slice.
type flatScratch struct {
	kern dpdf.Scratch
	ops  []dpdf.PDF
}

// NewFlat builds the engine and runs the first full analysis.
func NewFlat(d *synth.Design, vm *variation.Model, opts Options) *Flat {
	pts := opts.points()
	workers := parallel.Resolve(opts.Workers)
	c := d.Circuit
	n := c.NumGates()
	lv, depth := c.Levels()
	arena := dpdf.NewArena(n+1, pts)
	f := &Flat{
		d:       d,
		vm:      vm,
		pts:     pts,
		workers: workers,
		rev:     c.Revision(),
		r: &Result{
			STA: &sta.Result{
				Arrival: make([]float64, n),
				Slew:    make([]float64, n),
				Delay:   make([]float64, n),
				InSlew:  make([]float64, n),
				WorstPO: circuit.None,
			},
			Node:      make([]normal.Moments, n),
			GateDelay: make([]normal.Moments, n),
			arena:     arena,
		},
		arena:   arena,
		sizes:   make([]int, n),
		level:   lv,
		buckets: make([][]circuit.GateID, depth+1),
		sc:      make([]flatScratch, workers),
	}
	f.stepLevel = func(w, i int) { f.step(&f.sc[w], f.lvl[i]) }
	for _, id := range c.MustTopoOrder() {
		f.buckets[lv[id]] = append(f.buckets[lv[id]], id)
		if c.Gate(id).Fn == circuit.Input {
			// The statistical arrival at a PI is Point(0), always.
			f.arena.SetPoint(int(id), 0)
		}
	}
	f.Recompute()
	return f
}

// Result returns the up-to-date analysis, owned by the engine and
// updated in place by every recompute, repair and rollback.
func (f *Flat) Result() *Result { return f.r }

// Recompute re-runs the full analysis at the circuit's current sizes,
// in place, committing any open transaction. Results are bit-identical
// to a fresh Analyze; with workers <= 1 the steady state allocates
// nothing.
func (f *Flat) Recompute() {
	f.checkRev()
	f.commit()
	f.dropKept()
	c := f.d.Circuit
	for id := range f.sizes {
		f.sizes[id] = c.Gate(circuit.GateID(id)).SizeIdx
	}
	if f.workers <= 1 {
		sc := &f.sc[0]
		for _, bucket := range f.buckets {
			for _, id := range bucket {
				f.step(sc, id)
			}
		}
	} else {
		parallel.Levels(f.workers, f.buckets, func(w int, id circuit.GateID) {
			f.step(&f.sc[w], id)
		})
	}
	f.refreshSummary()
}

// parallelMinLevel is the narrowest level the dirty-cone repair and the
// what-if overlay hand to ForEachWorker; narrower levels run on the
// calling goroutine. One node eval costs about 3-5 µs at the default 12
// points (less for inputs and single-fanin gates); a ForEachWorker
// dispatch costs about 2 µs back to back and about 7 µs when the other
// CPU has gone idle, measured on a 2-CPU host. Interleaved runs of 32
// resize+rollback picks there put cutoffs 4 to 32 level on a 29k-gate
// design (all about 26 % under serial), while on c432-sized cones (~40
// gates) 4 and 8 ran about 12 % slower than serial and 16 about 3 %.
const parallelMinLevel = 16

// forLevel runs fn(w, i) for every i in [0, n): on up to workers
// goroutines when the level is at least parallelMinLevel wide, else on
// the calling goroutine as worker 0. With workers <= 1 it never starts
// a goroutine.
func forLevel(workers, n int, fn func(w, i int)) {
	if workers <= 1 || n < parallelMinLevel {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	parallel.ForEachWorker(workers, n, fn)
}

// scratch returns the first n per-worker scratches, growing the set
// when a caller asks for more workers than the engine was built with.
func (f *Flat) scratch(n int) []flatScratch {
	for len(f.sc) < n {
		f.sc = append(f.sc, flatScratch{})
	}
	return f.sc[:n]
}

func (f *Flat) checkRev() {
	if f.rev != f.d.Circuit.Revision() {
		panic("ssta: circuit structure changed under the engine; rebuild it")
	}
}

// step re-derives one gate of the engine's own analysis in place, from
// its fanins' current values.
func (f *Flat) step(sc *flatScratch, id circuit.GateID) {
	d, r := f.d, f.r
	g := d.Circuit.Gate(id)
	if g.Fn == circuit.Input {
		// Finite source drive: a loaded input arrives later. Only the
		// deterministic view moves; the statistical arrival stays Point(0).
		r.STA.Arrival[id] = d.Lib.PrimaryInputRes * d.Load(id)
		r.STA.Slew[id] = d.Lib.PrimaryInputSlew
		return
	}
	var fArr, fSlew float64
	sc.ops = sc.ops[:0]
	for _, fid := range g.Fanin {
		if a := r.STA.Arrival[fid]; a > fArr {
			fArr = a
		}
		if s := r.STA.Slew[fid]; s > fSlew {
			fSlew = s
		}
		sc.ops = append(sc.ops, f.arena.View(int(fid)))
	}
	e := f.eval(sc, f.arena, int(id), d.Cell(id), d.Load(id), fArr, fSlew)
	r.STA.InSlew[id] = fSlew
	r.STA.Delay[id] = e.delay
	r.STA.Slew[id] = e.slew
	r.STA.Arrival[id] = e.arrival
	r.GateDelay[id] = e.gateDelay
	r.Node[id] = e.node
}

// gateEval is one logic gate's re-derived timing.
type gateEval struct {
	delay, slew, arrival float64
	gateDelay, node      normal.Moments
}

// eval is FULLSSTA's per-gate computation, shared by every path through
// the engine. From the worst fanin arrival and slew and the gate's cell
// and load it derives the nominal timing with sta.Analyze's arithmetic,
// then writes the arrival PDF Sum(MaxN(sc.ops), N(delay, sigma)) into
// slot of a.
func (f *Flat) eval(sc *flatScratch, a *dpdf.Arena, slot int, cell *cells.Cell, load, fArr, fSlew float64) gateEval {
	delay := cell.Delay.Lookup(fSlew, load)
	sigma := f.vm.Sigma(cell, delay)
	temp := sc.kern.TempNormal(delay, sigma, f.pts)
	if len(sc.ops) == 1 {
		// MaxN over one fanin is that fanin verbatim; fuse into the Sum.
		a.SumInto(&sc.kern, slot, sc.ops[0], temp, f.pts)
	} else {
		a.MaxNInto(&sc.kern, slot, sc.ops, f.pts)
		a.SumInto(&sc.kern, slot, a.View(slot), temp, f.pts)
	}
	return gateEval{
		delay:     delay,
		slew:      cell.OutSlew.Lookup(fSlew, load),
		arrival:   fArr + delay,
		gateDelay: normal.Moments{Mean: delay, Var: sigma * sigma},
		node:      a.Moments(slot),
	}
}

// summarize computes the circuit-level summary from v's per-node
// values: the deterministic circuit delay and worst PO (sta.Analyze's
// scan) and the circuit PDF, Max over all POs, written into slot dst of
// a, with its moments.
func (f *Flat) summarize(v timingView, sc *flatScratch, a *dpdf.Arena, dst int) (maxArr float64, worstPO circuit.GateID, m normal.Moments) {
	outs := f.d.Circuit.Outputs
	maxArr, worstPO = math.Inf(-1), circuit.None
	sc.ops = sc.ops[:0]
	for _, po := range outs {
		if arr := v.staArrival(po); arr > maxArr {
			maxArr, worstPO = arr, po
		}
		sc.ops = append(sc.ops, v.arrival(po))
	}
	if len(outs) == 0 {
		maxArr = 0
	}
	a.MaxNInto(&sc.kern, dst, sc.ops, f.pts)
	return maxArr, worstPO, a.Moments(dst)
}

// refreshSummary re-derives the engine Result's circuit-level fields.
func (f *Flat) refreshSummary() {
	r := f.r
	top := f.d.Circuit.NumGates()
	var m normal.Moments
	r.STA.MaxArrival, r.STA.WorstPO, m = f.summarize(r, &f.sc[0], f.arena, top)
	r.CircuitPDF = f.arena.View(top)
	r.Mean, r.Sigma = m.Mean, math.Sqrt(m.Var)
}
