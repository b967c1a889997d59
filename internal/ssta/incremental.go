package ssta

import (
	"repro/internal/circuit"
	"repro/internal/dpdf"
	"repro/internal/normal"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// SizeChange is one gate resize in a ResizeAll change list or a
// BatchWhatIf candidate: the deterministic engine's change type.
type SizeChange = sta.SizeChange

// Incremental is the engine under the name of its resize API: the same
// type as Flat.
//
// A resize dirties the gate (its cell changed) and its fanin drivers
// (their load changed), then repairs level-ordered through the fanout
// cone, stopping early at nodes whose deterministic arrival/slew AND
// arrival PDF come out bit-identical to their previous values.
//
// The cutoff is exact, not a tolerance: every per-node computation is a
// deterministic pure function of the fanin values and the gate's cell,
// so bit-equal inputs reproduce bit-equal outputs, and by induction a
// pruned cone is exactly what a from-scratch Analyze would recompute.
// The differential harness in internal/difftest asserts this
// bit-for-bit on every node after every step.
//
// The one state-changing entry point is ResizeAll (Resize is a list of
// one). Each call that moves a size commits the previous transaction and
// opens a new one, which Rollback undoes — sizes and analysis both —
// without re-analysis, whether the call repaired a cone or adopted a
// kept what-if overlay (see BatchWhatIf). A list that changes nothing
// leaves the open transaction untouched, and a list that exactly
// restores what the open transaction changed is served by Rollback.
type Incremental = Flat

// NewIncremental builds the engine and runs the first full analysis;
// it is NewFlat.
func NewIncremental(d *synth.Design, vm *variation.Model, opts Options) *Incremental {
	return NewFlat(d, vm, opts)
}

// nodeSave is one journaled node's deterministic and moment state; its
// arrival PDF sits in the journal arena.
type nodeSave struct {
	id        circuit.GateID
	node      normal.Moments
	gateDelay normal.Moments
	staArr    float64
	staSlew   float64
	staDelay  float64
	staInSlew float64
}

type sizeSave struct {
	id      circuit.GateID
	oldSize int
}

type summarySave struct {
	mean, sigma float64
	maxArrival  float64
	worstPO     circuit.GateID
}

// Evals returns the total number of node re-evaluations performed by
// dirty-cone repairs since construction.
func (f *Flat) Evals() int64 { return f.totalEvals }

// NodeEvals returns how often gate g has been re-evaluated by dirty-cone
// repairs since construction.
func (f *Flat) NodeEvals(g circuit.GateID) int64 {
	if f.evals == nil {
		return 0
	}
	return f.evals[g]
}

// Resize sets gate g to sizeIdx and repairs the analysis, returning the
// number of gates re-evaluated: ResizeAll of one change.
func (f *Flat) Resize(g circuit.GateID, sizeIdx int) int {
	n, _ := f.ResizeAll([]SizeChange{{Gate: g, Size: sizeIdx}})
	return n
}

// ResizeAll sets every listed gate to its size (a gate listed twice ends
// at its last entry) and brings the analysis up to date, returning the
// number of gates re-evaluated and whether it opened a transaction. Its
// effective changes are the listed gates whose size differs from the
// engine's record — not the circuit's, so the listed gates may already
// have been edited in place; no other gate may have been. With none,
// nothing moves. If they exactly restore what the open transaction
// changed, the call is that transaction's Rollback. If they equal a
// candidate the last BatchWhatIf kept, it adopts that candidate's
// overlay, re-evaluating nothing; otherwise it repairs the union cone in
// one level-ordered pass. Only these two open a transaction.
func (f *Flat) ResizeAll(changes []SizeChange) (touched int, opened bool) {
	f.checkRev()
	c := f.d.Circuit
	for _, ch := range changes {
		c.Gate(ch.Gate).SizeIdx = ch.Size
	}
	// Stage the effective changes after the open transaction's size log,
	// each gate once with its recorded size, and move the record to the
	// new sizes.
	open := len(f.sizeLog)
	for _, ch := range changes {
		if s := c.Gate(ch.Gate).SizeIdx; s != f.sizes[ch.Gate] {
			f.sizeLog = append(f.sizeLog, sizeSave{id: ch.Gate, oldSize: f.sizes[ch.Gate]})
			f.sizes[ch.Gate] = s
		}
	}
	staged := f.sizeLog[open:]
	switch {
	case len(staged) == 0:
		return 0, false
	case f.reverts(open):
		f.sizeLog = f.sizeLog[:open]
		f.Rollback()
		return 0, false
	}
	var kept *whatIfWorker
	for _, w := range f.overlays {
		if w != nil && w.kept && w.proposes(staged) {
			kept = w
			break
		}
	}
	f.sizeLog = append(f.sizeLog[:0], staged...)
	f.begin()
	if kept != nil {
		f.adopt(kept)
	} else {
		for _, s := range f.sizeLog {
			f.seed(s.id)
		}
		touched = f.repair()
	}
	f.dropKept()
	return touched, true
}

// reverts reports whether the changes staged at f.sizeLog[open:] restore
// exactly the sizes the open transaction (f.sizeLog[:open]) changed. Both
// lists name each gate once, and every gate the open transaction changed
// that is back at its old size was staged, so equal lengths make the two
// sets equal.
func (f *Flat) reverts(open int) bool {
	if len(f.sizeLog)-open != open {
		return false
	}
	for _, s := range f.sizeLog[:open] {
		if f.sizes[s.id] != s.oldSize {
			return false
		}
	}
	return true
}

// Rollback undoes the most recent state-changing call: circuit sizes
// and every journaled node revert to their exact prior values, without
// re-analysis. A second Rollback (or one before any change) is a no-op.
func (f *Flat) Rollback() {
	f.checkRev()
	if len(f.sizeLog) == 0 {
		return
	}
	f.dropKept()
	c := f.d.Circuit
	// Reverse order, so a gate logged twice ends at its oldest state.
	for i := len(f.sizeLog) - 1; i >= 0; i-- {
		s := f.sizeLog[i]
		c.Gate(s.id).SizeIdx = s.oldSize
		f.sizes[s.id] = s.oldSize
	}
	r := f.r
	for j := len(f.journal) - 1; j >= 0; j-- {
		e := &f.journal[j]
		id := e.id
		f.arena.Set(int(id), f.jarena.View(j+1))
		r.Node[id] = e.node
		r.GateDelay[id] = e.gateDelay
		r.STA.Arrival[id] = e.staArr
		r.STA.Slew[id] = e.staSlew
		r.STA.Delay[id] = e.staDelay
		r.STA.InSlew[id] = e.staInSlew
	}
	top := c.NumGates()
	f.arena.Set(top, f.jarena.View(0))
	r.CircuitPDF = f.arena.View(top)
	r.Mean, r.Sigma = f.summary.mean, f.summary.sigma
	r.STA.MaxArrival, r.STA.WorstPO = f.summary.maxArrival, f.summary.worstPO
	f.commit()
}

// commit drops the open transaction's journal.
func (f *Flat) commit() {
	f.journal = f.journal[:0]
	f.sizeLog = f.sizeLog[:0]
}

// begin commits the previous transaction's node journal and opens a new
// transaction over the size edits in f.sizeLog, snapshotting the
// circuit-level summary.
func (f *Flat) begin() {
	f.journal = f.journal[:0]
	n := f.d.Circuit.NumGates()
	if f.queue == nil {
		f.queue = circuit.NewLevelQueue(n)
		f.evals = make([]int64, n)
		f.jarena = dpdf.NewArena(1, f.pts)
	}
	r := f.r
	f.summary = summarySave{
		mean:       r.Mean,
		sigma:      r.Sigma,
		maxArrival: r.STA.MaxArrival,
		worstPO:    r.STA.WorstPO,
	}
	f.jarena.Set(0, f.arena.View(n))
}

// seed dirties the resized gate (its cell changed) and its drivers
// (their load changed — for a PI driver the deterministic arrival
// itself depends on the load).
func (f *Flat) seed(g circuit.GateID) {
	f.queue.Push(g, f.level[g])
	for _, fid := range f.d.Circuit.Gate(g).Fanin {
		f.queue.Push(fid, f.level[fid])
	}
}

// save journals a node's state ahead of its repair.
func (f *Flat) save(id circuit.GateID) {
	r := f.r
	j := len(f.journal)
	f.journal = append(f.journal, nodeSave{
		id:        id,
		node:      r.Node[id],
		gateDelay: r.GateDelay[id],
		staArr:    r.STA.Arrival[id],
		staSlew:   r.STA.Slew[id],
		staDelay:  r.STA.Delay[id],
		staInSlew: r.STA.InSlew[id],
	})
	f.jarena.Grow(j + 2)
	f.jarena.Set(j+1, f.arena.View(int(id)))
}

// repair drains the dirty queue a level at a time, re-deriving each node
// with the engine's step and pushing its fanouts when anything a
// downstream node reads (deterministic arrival/slew, the arrival PDF)
// changed. Popping in level order visits each node at most once.
//
// Each level runs in three phases: journal every node serially in pop
// order; step them all, on f.workers workers when the level is wide
// (forLevel) — every fanin lies at a strictly lower level, so a step
// reads only finished slots and writes only its own; then, serially in
// pop order, test each node against its journal entry and push its
// fanouts. Journal order, counters and values are those of a one-node-
// at-a-time drain.
func (f *Flat) repair() int {
	c := f.d.Circuit
	nominal := f.r.STA
	touched := 0
	anyChanged := false
	for {
		f.lvl = f.queue.PopLevel(f.lvl[:0])
		if len(f.lvl) == 0 {
			break
		}
		base := len(f.journal)
		for _, id := range f.lvl {
			f.evals[id]++
			f.save(id)
		}
		touched += len(f.lvl)
		f.totalEvals += int64(len(f.lvl))
		forLevel(f.workers, len(f.lvl), f.stepLevel)
		for i, id := range f.lvl {
			j := base + i
			old := &f.journal[j]
			if nominal.Arrival[id] != old.staArr || nominal.Slew[id] != old.staSlew ||
				!f.arena.Equal(int(id), f.jarena.View(j+1)) {
				anyChanged = true
				for _, fo := range c.Gate(id).Fanout {
					f.queue.Push(fo, f.level[fo])
				}
			}
		}
	}
	if anyChanged {
		f.refreshSummary()
	}
	return touched
}
