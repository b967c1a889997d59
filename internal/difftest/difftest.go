// Package difftest is the differential test harness for the
// incremental timing engines: it drives seeded random resize sequences
// against ssta.Incremental and sta.Incremental,
// asserting after every step that the repaired analysis is
// bit-identical — every node, not just the circuit summary
// — to a from-scratch analysis of the same sizes, and that Rollback
// restores the exact prior state.
//
// The helpers return errors instead of taking a *testing.T so the fuzz
// target and the package tests share one comparison and one driver.
package difftest

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/cells"
	"repro/internal/circuit"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// CompareSTA checks two deterministic analyses for bit-exact equality
// on every per-gate field and the circuit summary.
func CompareSTA(got, want *sta.Result) error {
	if err := eqFloats("sta.Arrival", got.Arrival, want.Arrival); err != nil {
		return err
	}
	if err := eqFloats("sta.Slew", got.Slew, want.Slew); err != nil {
		return err
	}
	if err := eqFloats("sta.Delay", got.Delay, want.Delay); err != nil {
		return err
	}
	if err := eqFloats("sta.InSlew", got.InSlew, want.InSlew); err != nil {
		return err
	}
	if got.MaxArrival != want.MaxArrival {
		return fmt.Errorf("sta.MaxArrival: got %v, want %v", got.MaxArrival, want.MaxArrival)
	}
	if got.WorstPO != want.WorstPO {
		return fmt.Errorf("sta.WorstPO: got %d, want %d", got.WorstPO, want.WorstPO)
	}
	return nil
}

// CompareSSTA checks two FULLSSTA analyses for bit-exact equality: the
// embedded deterministic analysis, every node's arrival PDF and
// moments, every gate's delay moments, and the circuit summary.
func CompareSSTA(got, want *ssta.Result) error {
	if err := CompareSTA(got.STA, want.STA); err != nil {
		return err
	}
	for i := range want.Node {
		if id := circuit.GateID(i); !got.Arrival(id).Equal(want.Arrival(id)) {
			return fmt.Errorf("ssta.Arrival[%d]: PDFs differ", i)
		}
		if got.Node[i] != want.Node[i] {
			return fmt.Errorf("ssta.Node[%d]: got %+v, want %+v", i, got.Node[i], want.Node[i])
		}
		if got.GateDelay[i] != want.GateDelay[i] {
			return fmt.Errorf("ssta.GateDelay[%d]: got %+v, want %+v", i, got.GateDelay[i], want.GateDelay[i])
		}
	}
	if !got.CircuitPDF.Equal(want.CircuitPDF) {
		return fmt.Errorf("ssta.CircuitPDF: PDFs differ")
	}
	if got.Mean != want.Mean || got.Sigma != want.Sigma {
		return fmt.Errorf("ssta summary: got (%v, %v), want (%v, %v)",
			got.Mean, got.Sigma, want.Mean, want.Sigma)
	}
	return nil
}

func eqFloats(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d]: got %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// mutator drives one seeded random resize sequence. Each step is one of
// a single resize, a ResizeAll change list, in-place size edits handed
// to ResizeAll (the optimizers' pattern, on a journaled engine sometimes
// followed by the list that reverts them), a what-if step (whatIf), or
// a mutation immediately undone by Rollback; the caller's verify hook
// runs after every step against a from-scratch analysis.
type mutator struct {
	d     *synth.Design
	rng   *rand.Rand
	logic []circuit.GateID
}

func newMutator(d *synth.Design, seed uint64) *mutator {
	m := &mutator{d: d, rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
	c := d.Circuit
	for id := 0; id < c.NumGates(); id++ {
		g := circuit.GateID(id)
		if c.Gate(g).Fn.IsLogic() {
			m.logic = append(m.logic, g)
		}
	}
	return m
}

func (m *mutator) pick() (circuit.GateID, int) {
	g := m.logic[m.rng.IntN(len(m.logic))]
	gate := m.d.Circuit.Gate(g)
	n := m.d.Lib.NumSizes(cells.Kind(gate.CellRef))
	return g, m.rng.IntN(n)
}

// engine abstracts the incremental engines for the shared driver.
type engine interface {
	ResizeAll(changes []ssta.SizeChange) int
	Rollback()
	// Verify compares the engine's repaired state against a
	// from-scratch analysis of the design's current sizes.
	Verify() error
}

// whatIfEngine is a journaled engine with what-if scoring. WhatIf scores
// the candidates as one batch against the engine's current state,
// leaving the engine and the design unmoved.
type whatIfEngine interface {
	engine
	WhatIf(cands [][]ssta.SizeChange)
}

// edits draws 1 to max random resizes; a gate may repeat.
func (m *mutator) edits(max int) []ssta.SizeChange {
	batch := make([]ssta.SizeChange, 1+m.rng.IntN(max))
	for i := range batch {
		g, s := m.pick()
		batch[i] = ssta.SizeChange{Gate: g, Size: s}
	}
	return batch
}

// applied returns the design's sizing with list applied in order: the
// sizing a ResizeAll of list must leave.
func (m *mutator) applied(list []ssta.SizeChange) []int {
	s := m.d.Circuit.SizeSnapshot()
	for _, ch := range list {
		s[ch.Gate] = ch.Size
	}
	return s
}

// disguised returns a change list that takes the design to sizing want
// in an unnatural form: the changed gates in descending ID order, the
// first of them listed once before at a random size (its later entry
// wins), and a no-op entry for a random unchanged gate.
func (m *mutator) disguised(want []int) []ssta.SizeChange {
	c := m.d.Circuit
	var out []ssta.SizeChange
	for id := len(want) - 1; id >= 0; id-- {
		if g := circuit.GateID(id); c.Gate(g).SizeIdx != want[id] {
			out = append(out, ssta.SizeChange{Gate: g, Size: want[id]})
		}
	}
	if len(out) == 0 {
		return nil
	}
	g, s := m.pick()
	out = append([]ssta.SizeChange{{Gate: out[0].Gate, Size: s}}, out...)
	if c.Gate(g).SizeIdx == want[g] {
		out = append(out, ssta.SizeChange{Gate: g, Size: want[g]})
	}
	return out
}

// whatIf is the what-if step. It first rolls back any open transaction,
// so only a move made inside the step can be reverted. It then scores
// two candidates as one batch and applies by ResizeAll candidate 0,
// candidate 1 disguised, other edits, or candidate 0 after an
// intervening Resize, which may itself be rolled back. The engine keeps
// candidate 0, and candidate 1 too when the pair's cones fit (conesFit).
// A ResizeAll onto a kept candidate that moves any size must adopt it
// (re-evaluate nothing), as must one that exactly reverts the
// intervening Resize (the engine's Rollback). One onto other edits, onto
// an unkept candidate, or after a call that moved the engine and so
// dropped the kept candidates, must repair. Half the time the step
// verifies and then rolls the ResizeAll back.
func (m *mutator) whatIf(eng whatIfEngine, step int) error {
	c := m.d.Circuit
	eng.Rollback()
	cands := [][]ssta.SizeChange{m.edits(4), m.edits(4)}
	eng.WhatIf(cands)
	kept := true
	var undo []int // the sizing a revert of the open transaction lands on
	target := cands[0]
	switch m.rng.IntN(4) {
	case 1:
		target, kept = m.disguised(m.applied(cands[1])), conesFit(c, cands)
	case 2:
		target, kept = m.edits(4), false
	case 3:
		// A resize that moves any size moves the engine.
		was := c.SizeSnapshot()
		eng.ResizeAll(m.edits(1))
		if kept = slices.Equal(was, c.SizeSnapshot()); !kept && m.rng.IntN(2) == 0 {
			eng.Rollback()
		} else if !kept {
			undo = was
		}
	}
	want := m.applied(target)
	moved, reverted := !slices.Equal(c.SizeSnapshot(), want), slices.Equal(want, undo)
	touched := eng.ResizeAll(target)
	switch {
	case moved && (kept || reverted) && touched != 0:
		return fmt.Errorf("step %d: ResizeAll onto a kept candidate or a revert re-evaluated %d gates", step, touched)
	case moved && !kept && !reverted && touched == 0:
		return fmt.Errorf("step %d: ResizeAll onto a sizing no kept candidate proposes re-evaluated nothing", step)
	}
	if m.rng.IntN(2) == 0 {
		if err := eng.Verify(); err != nil {
			return fmt.Errorf("step %d (pre-rollback): %w", step, err)
		}
		eng.Rollback()
	}
	return nil
}

// conesFit reports whether the candidates' cones — each listed gate, its
// drivers and their transitive fanout — number at most the circuit's
// gates in total: when the engine keeps both candidates of a pair.
func conesFit(c *circuit.Circuit, cands [][]ssta.SizeChange) bool {
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

// Drive runs steps random mutations on eng, verifying after every step.
// It returns the first verification error, annotated with the step.
// Engines without what-if scoring (and without a journal) skip the
// what-if step and the revert check.
func (m *mutator) drive(eng engine, steps int) error {
	c := m.d.Circuit
	for step := 0; step < steps; step++ {
		op := m.rng.IntN(100)
		wi, journaled := eng.(whatIfEngine)
		switch {
		case op < 45: // single resize
			eng.ResizeAll(m.edits(1))
		case op < 62: // a change list; a repeated gate ends at its last entry
			list := m.edits(5)
			want := m.applied(list)
			if eng.ResizeAll(list); !slices.Equal(c.SizeSnapshot(), want) {
				return fmt.Errorf("step %d: ResizeAll did not leave each listed gate at its last entry", step)
			}
		case op < 75 && journaled:
			if err := m.whatIf(wi, step); err != nil {
				return err
			}
		case op < 85: // in-place edits handed to ResizeAll; on a journaled
			// engine, half the time followed by a disguised list that
			// reverts them, which must be served by Rollback: nothing
			// re-evaluated, and a further Rollback has nothing to undo.
			revert := journaled && m.rng.IntN(2) == 0
			if revert {
				eng.Rollback() // so the edits' own transaction is the open one
			}
			before := c.SizeSnapshot()
			list := m.edits(4)
			for _, ch := range list {
				c.Gate(ch.Gate).SizeIdx = ch.Size
			}
			if eng.ResizeAll(list); !revert {
				break
			}
			if n := eng.ResizeAll(m.disguised(before)); n != 0 {
				return fmt.Errorf("step %d: a ResizeAll reverting the open transaction re-evaluated %d gates", step, n)
			}
			if eng.Rollback(); !slices.Equal(before, c.SizeSnapshot()) {
				return fmt.Errorf("step %d: a reverting ResizeAll and a Rollback did not leave the prior sizes", step)
			}
		default: // mutate, verify, then roll back; the post-step verify
			// below then proves Rollback restored the exact prior state.
			eng.ResizeAll(m.edits(1))
			if err := eng.Verify(); err != nil {
				return fmt.Errorf("step %d (pre-rollback): %w", step, err)
			}
			eng.Rollback()
		}
		if err := eng.Verify(); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
	}
	return nil
}

// sstaEngine adapts ssta.Incremental to the driver.
type sstaEngine struct {
	d    *synth.Design
	vm   *variation.Model
	opts ssta.Options
	inc  *ssta.Incremental
}

func (e *sstaEngine) Rollback() { e.inc.Rollback() }
func (e *sstaEngine) ResizeAll(changes []ssta.SizeChange) int {
	n, _ := e.inc.ResizeAll(changes)
	return n
}
func (e *sstaEngine) Verify() error {
	return CompareSSTA(e.inc.Result(), ssta.Analyze(e.d, e.vm, e.opts))
}

func (e *sstaEngine) WhatIf(cands [][]ssta.SizeChange) { e.batch(cands) }

// batch runs BatchWhatIf at lambda 3 on the engine's worker count.
func (e *sstaEngine) batch(cands [][]ssta.SizeChange) []ssta.WhatIfOutcome {
	return e.inc.BatchWhatIf(cands, 3, e.opts.Workers)
}

// staEngine adapts the deterministic sta.Incremental. It has
// no transactional Rollback; the driver's rollback step is emulated by
// resizing the last list's gates back, which must land on the identical
// state.
type staEngine struct {
	d    *synth.Design
	inc  *sta.Incremental
	undo []ssta.SizeChange
}

func (e *staEngine) ResizeAll(changes []ssta.SizeChange) int {
	e.undo = e.undo[:0]
	for _, ch := range changes {
		e.undo = append(e.undo, ssta.SizeChange{Gate: ch.Gate, Size: e.d.Circuit.Gate(ch.Gate).SizeIdx})
	}
	return e.inc.ResizeAll(changes)
}
func (e *staEngine) Rollback() { e.inc.ResizeAll(e.undo) }
func (e *staEngine) Verify() error {
	return CompareSTA(e.inc.Result(), sta.Analyze(e.d))
}

// DriveSSTA runs a seeded random resize sequence against a FULLSSTA
// incremental engine on d, verifying bit-exactness after every step.
func DriveSSTA(d *synth.Design, vm *variation.Model, opts ssta.Options, steps int, seed uint64) error {
	eng := &sstaEngine{d: d, vm: vm, opts: opts, inc: ssta.NewIncremental(d, vm, opts)}
	return newMutator(d, seed).drive(eng, steps)
}

// DriveSTA runs a seeded random resize sequence against the
// deterministic incremental engine on d, verifying bit-exactness after
// every step.
func DriveSTA(d *synth.Design, steps int, seed uint64) error {
	eng := &staEngine{d: d, inc: sta.NewIncremental(d)}
	return newMutator(d, seed).drive(eng, steps)
}

// lockstepEngine drives one FULLSSTA engine per worker count in
// lockstep, each on its own copy of the design, and demands that they
// agree exactly after every call: the touched count each call returns,
// every node of the analysis, Evals() and NodeEvals(g) for every gate.
// Engine 0 runs on the mutator's design, so in-place edits reach only
// it; every engine then takes the same change list. A touched-count
// mismatch is held in err until the next Verify.
type lockstepEngine struct {
	engines []*sstaEngine
	workers []int
	err     error
}

func (l *lockstepEngine) each(what string, call func(e *sstaEngine) int) int {
	want := call(l.engines[0])
	for k, e := range l.engines[1:] {
		if got := call(e); got != want && l.err == nil {
			l.err = fmt.Errorf("%s touched %d gates at workers %d, %d at workers %d",
				what, got, l.workers[k+1], want, l.workers[0])
		}
	}
	return want
}

func (l *lockstepEngine) ResizeAll(changes []ssta.SizeChange) int {
	return l.each("ResizeAll", func(e *sstaEngine) int { return e.ResizeAll(changes) })
}

func (l *lockstepEngine) Rollback() {
	for _, e := range l.engines {
		e.Rollback()
	}
}

func (l *lockstepEngine) WhatIf(cands [][]ssta.SizeChange) {
	want := l.engines[0].batch(cands)
	for k, e := range l.engines[1:] {
		if got := e.batch(cands); !slices.Equal(got, want) && l.err == nil {
			l.err = fmt.Errorf("BatchWhatIf outcomes at workers %d differ from workers %d: %+v vs %+v",
				l.workers[k+1], l.workers[0], got, want)
		}
	}
}

func (l *lockstepEngine) Verify() error {
	if l.err != nil {
		return l.err
	}
	ref := l.engines[0]
	if err := ref.Verify(); err != nil {
		return err
	}
	n := ref.d.Circuit.NumGates()
	for k, e := range l.engines[1:] {
		w := l.workers[k+1]
		if err := CompareSSTA(e.inc.Result(), ref.inc.Result()); err != nil {
			return fmt.Errorf("workers %d vs %d: %w", w, l.workers[0], err)
		}
		if got, want := e.inc.Evals(), ref.inc.Evals(); got != want {
			return fmt.Errorf("workers %d: Evals() = %d, want %d", w, got, want)
		}
		for g := 0; g < n; g++ {
			id := circuit.GateID(g)
			if got, want := e.inc.NodeEvals(id), ref.inc.NodeEvals(id); got != want {
				return fmt.Errorf("workers %d: NodeEvals(%d) = %d, want %d", w, g, got, want)
			}
		}
	}
	return nil
}

// DriveSSTAWorkers runs DriveSSTA's seeded resize sequence on one
// engine per entry of workers (opts.Workers overridden), verifying the
// first against a from-scratch analysis after every step and every
// other one against the first: node values, per-call touched counts,
// Evals and NodeEvals must not depend on the worker count.
func DriveSSTAWorkers(d *synth.Design, vm *variation.Model, opts ssta.Options, workers []int, steps int, seed uint64) error {
	l := &lockstepEngine{workers: workers}
	for k, w := range workers {
		dk := d
		if k > 0 {
			dk = &synth.Design{Circuit: d.Circuit.Clone(), Lib: d.Lib}
		}
		o := opts
		o.Workers = w
		l.engines = append(l.engines, &sstaEngine{d: dk, vm: vm, opts: o, inc: ssta.NewIncremental(dk, vm, o)})
	}
	return newMutator(d, seed).drive(l, steps)
}
