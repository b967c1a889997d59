package sta

import (
	"repro/internal/circuit"
	"repro/internal/synth"
)

// Incremental maintains a deterministic timing analysis across gate
// resizes without full recomputation: changing one gate's size dirties
// only the gate, its drivers (their load changed) and the downstream
// cone reachable through actually-changed arrival times or slews. On
// typical subcircuit-local changes this re-evaluates a few dozen gates
// instead of the whole netlist.
//
// Propagation stops only where a gate's arrival and slew are exactly
// unchanged, which keeps the repaired analysis bit-identical to a full
// recompute — the contract the optimizer equivalence tests and the
// statistical incremental engines rely on.
type Incremental struct {
	d *synth.Design
	r *Result

	level []int32
	// queue of dirty gates ordered by level (a gate must be re-evaluated
	// after all its dirty fanins).
	queue *circuit.LevelQueue
	rev   int
	// sizes is the engine's record of every gate's size as of the last
	// repair: ResizeAll compares a change list against it, not against
	// the circuit.
	sizes []int
}

// SizeChange is one gate resize: the gate and its target size index.
type SizeChange struct {
	Gate circuit.GateID
	Size int
}

// NewIncremental runs one full analysis and prepares the incremental
// state. The returned Result is owned by the Incremental and updated in
// place by ResizeAll; callers must not retain stale copies of its
// fields.
func NewIncremental(d *synth.Design) *Incremental {
	lv, _ := d.Circuit.Levels()
	return &Incremental{
		d:     d,
		r:     Analyze(d),
		level: lv,
		queue: circuit.NewLevelQueue(d.Circuit.NumGates()),
		rev:   d.Circuit.Revision(),
		sizes: d.Circuit.SizeSnapshot(),
	}
}

// Result returns the up-to-date analysis.
func (inc *Incremental) Result() *Result { return inc.r }

// ResizeAll sets every listed gate to its size (a gate listed twice ends
// at its last entry) and repairs, in one pass, the cones of the gates
// whose size now differs from the engine's record. It returns the number
// of gates re-evaluated. The previous sizes come from the record, so the
// listed gates may already hold their new sizes in the circuit (an
// optimizer edits in place while it scores); gates not listed must not
// have been edited.
func (inc *Incremental) ResizeAll(changes []SizeChange) int {
	inc.checkRev()
	c := inc.d.Circuit
	for _, ch := range changes {
		c.Gate(ch.Gate).SizeIdx = ch.Size
	}
	dirty := false
	for _, ch := range changes {
		if s := c.Gate(ch.Gate).SizeIdx; s != inc.sizes[ch.Gate] {
			inc.sizes[ch.Gate] = s
			inc.seed(ch.Gate)
			dirty = true
		}
	}
	if !dirty {
		return 0
	}
	return inc.propagate()
}

func (inc *Incremental) checkRev() {
	if inc.rev != inc.d.Circuit.Revision() {
		panic("sta: circuit structure changed under Incremental; rebuild it")
	}
}

// seed dirties the resized gate (its cell changed) and its drivers
// (their load changed — for a PI driver the arrival itself depends on
// the load). Everything downstream is discovered on the fly.
func (inc *Incremental) seed(g circuit.GateID) {
	inc.push(g)
	for _, f := range inc.d.Circuit.Gate(g).Fanin {
		inc.push(f)
	}
}

func (inc *Incremental) push(g circuit.GateID) {
	inc.queue.Push(g, inc.level[g])
}

func (inc *Incremental) propagate() int {
	c := inc.d.Circuit
	d := inc.d
	r := inc.r
	touched := 0
	for {
		id, ok := inc.queue.Pop()
		if !ok {
			break
		}
		touched++
		g := c.Gate(id)

		var newArr, newSlew, newDelay, newInSlew float64
		if g.Fn == circuit.Input {
			newArr = d.Lib.PrimaryInputRes * d.Load(id)
			newSlew = d.Lib.PrimaryInputSlew
		} else {
			arr, slew := worstFanin(r, g)
			newInSlew = slew
			cell := d.Cell(id)
			load := d.Load(id)
			newDelay = cell.Delay.Lookup(slew, load)
			newSlew = cell.OutSlew.Lookup(slew, load)
			newArr = arr + newDelay
		}
		changed := newArr != r.Arrival[id] || newSlew != r.Slew[id]
		r.Arrival[id] = newArr
		r.Slew[id] = newSlew
		r.Delay[id] = newDelay
		r.InSlew[id] = newInSlew
		if changed {
			for _, fo := range g.Fanout {
				inc.push(fo)
			}
		}
	}
	// Repair the circuit-level summary (cheap: scan POs).
	r.MaxArrival = 0
	r.WorstPO = circuit.None
	for _, po := range c.Outputs {
		if r.WorstPO == circuit.None || r.Arrival[po] > r.MaxArrival {
			r.MaxArrival = r.Arrival[po]
			r.WorstPO = po
		}
	}
	return touched
}
