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
// a single Resize, a ResizeAll batch, external size edits followed by a
// Sync, a what-if step (whatIf), or a mutation immediately undone by
// Rollback; the caller's verify hook runs after every step against a
// from-scratch analysis.
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
	Resize(g circuit.GateID, size int) int
	Sync() int
	Rollback()
	ResizeBatch(changes []sizeChange) int
	// Verify compares the engine's repaired state against a
	// from-scratch analysis of the design's current sizes.
	Verify() error
}

// whatIfEngine is an engine with what-if scoring. WhatIf scores the
// candidates as one batch against the engine's current state, leaving
// the engine and the design unmoved.
type whatIfEngine interface {
	engine
	WhatIf(cands [][]sizeChange)
}

type sizeChange struct {
	gate circuit.GateID
	size int
}

// edits draws 1 to max random resizes; a gate may repeat.
func (m *mutator) edits(max int) []sizeChange {
	batch := make([]sizeChange, 1+m.rng.IntN(max))
	for i := range batch {
		g, s := m.pick()
		batch[i] = sizeChange{gate: g, size: s}
	}
	return batch
}

// whatIf is the what-if step: score two candidates as one batch, then
// Sync onto candidate 0, candidate 1, other edits, or candidate 0 after
// an intervening Resize or Rollback. The engine keeps candidate 0, and
// candidate 1 too when the pair's cones fit (conesFit). A Sync onto a
// kept candidate that moves any size must adopt it (re-evaluate
// nothing); a Sync onto other edits, onto an unkept candidate, or after
// a call that moved the engine and so dropped the kept candidates, must
// repair. Half the time the step verifies and then rolls the Sync back.
func (m *mutator) whatIf(eng whatIfEngine, step int) error {
	c := m.d.Circuit
	cands := [][]sizeChange{m.edits(4), m.edits(4)}
	eng.WhatIf(cands)
	kept := true
	var target []sizeChange
	switch pick := m.rng.IntN(4); pick {
	case 0:
		target = cands[0]
	case 1:
		target, kept = cands[1], conesFit(c, cands)
	case 2:
		target, kept = m.edits(4), false
	default:
		// A Resize or Rollback that moves any size moves the engine.
		was := c.SizeSnapshot()
		if m.rng.IntN(2) == 0 {
			g, s := m.pick()
			eng.Resize(g, s)
		} else {
			eng.Rollback()
		}
		kept = slices.Equal(was, c.SizeSnapshot())
		target = cands[0]
	}
	before := c.SizeSnapshot()
	for _, ch := range target {
		c.Gate(ch.gate).SizeIdx = ch.size
	}
	moved := !slices.Equal(before, c.SizeSnapshot())
	touched := eng.Sync()
	switch {
	case moved && kept && touched != 0:
		return fmt.Errorf("step %d: Sync onto a kept candidate repaired %d gates instead of adopting", step, touched)
	case moved && !kept && touched == 0:
		return fmt.Errorf("step %d: Sync onto a sizing no kept candidate proposes re-evaluated nothing", step)
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
func conesFit(c *circuit.Circuit, cands [][]sizeChange) bool {
	total := 0
	for _, ch := range cands {
		var seeds []circuit.GateID
		for _, x := range ch {
			seeds = append(seeds, x.gate)
			seeds = append(seeds, c.Gate(x.gate).Fanin...)
		}
		total += len(c.TransitiveFanout(seeds, -1))
	}
	return total <= c.NumGates()
}

// Drive runs steps random mutations on eng, verifying after every step.
// It returns the first verification error, annotated with the step.
// Engines without what-if scoring take an external-edit Sync step where
// the what-if step would go.
func (m *mutator) drive(eng engine, steps int) error {
	for step := 0; step < steps; step++ {
		op := m.rng.IntN(100)
		wi, canWhatIf := eng.(whatIfEngine)
		switch {
		case op < 45: // single resize
			g, s := m.pick()
			eng.Resize(g, s)
		case op < 62: // batched resize
			eng.ResizeBatch(m.edits(5))
		case op < 75 && canWhatIf:
			if err := m.whatIf(wi, step); err != nil {
				return err
			}
		case op < 85: // external edits + Sync (the optimizer's pattern)
			for i := 0; i < 1+m.rng.IntN(4); i++ {
				g, s := m.pick()
				m.d.Circuit.Gate(g).SizeIdx = s
			}
			eng.Sync()
		default: // mutate, verify, then roll back; the post-step verify
			// below then proves Rollback restored the exact prior state.
			g, s := m.pick()
			eng.Resize(g, s)
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

func (e *sstaEngine) Resize(g circuit.GateID, size int) int { return e.inc.Resize(g, size) }
func (e *sstaEngine) Sync() int                             { return e.inc.Sync() }
func (e *sstaEngine) Rollback()                             { e.inc.Rollback() }
func (e *sstaEngine) ResizeBatch(changes []sizeChange) int {
	batch := make([]ssta.SizeChange, len(changes))
	for i, ch := range changes {
		batch[i] = ssta.SizeChange{Gate: ch.gate, Size: ch.size}
	}
	return e.inc.ResizeAll(batch)
}
func (e *sstaEngine) Verify() error {
	return CompareSSTA(e.inc.Result(), ssta.Analyze(e.d, e.vm, e.opts))
}
func (e *sstaEngine) WhatIf(cands [][]sizeChange) { e.batch(cands) }

// batch runs BatchWhatIf at lambda 3 on the engine's worker count.
func (e *sstaEngine) batch(cands [][]sizeChange) []ssta.WhatIfOutcome {
	sc := make([][]ssta.SizeChange, len(cands))
	for i, ch := range cands {
		for _, c := range ch {
			sc[i] = append(sc[i], ssta.SizeChange{Gate: c.gate, Size: c.size})
		}
	}
	return e.inc.BatchWhatIf(sc, 3, e.opts.Workers)
}

// staEngine adapts the deterministic sta.Incremental. It has
// no transactional Rollback; the driver's rollback step is emulated by
// resizing back, which must land on the identical state.
type staEngine struct {
	d        *synth.Design
	inc      *sta.Incremental
	lastGate circuit.GateID
	lastOld  int
}

func (e *staEngine) Resize(g circuit.GateID, size int) int {
	e.lastGate = g
	e.lastOld = e.d.Circuit.Gate(g).SizeIdx
	return e.inc.Resize(g, size)
}
func (e *staEngine) Sync() int { return e.inc.Sync() }
func (e *staEngine) Rollback() {
	e.inc.Resize(e.lastGate, e.lastOld)
}
func (e *staEngine) ResizeBatch(changes []sizeChange) int {
	n := 0
	for _, ch := range changes {
		n += e.inc.Resize(ch.gate, ch.size)
	}
	return n
}
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
// Engine 0 runs on the mutator's design; external size edits reach the
// others through Sync, which first copies engine 0's sizes over. A
// touched-count mismatch is held in err until the next Verify.
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

func (l *lockstepEngine) Resize(g circuit.GateID, size int) int {
	return l.each("Resize", func(e *sstaEngine) int { return e.Resize(g, size) })
}

func (l *lockstepEngine) Sync() int {
	sizes := l.engines[0].d.Circuit.SizeSnapshot()
	return l.each("Sync", func(e *sstaEngine) int {
		e.d.Circuit.RestoreSizes(sizes)
		return e.Sync()
	})
}

func (l *lockstepEngine) Rollback() {
	for _, e := range l.engines {
		e.Rollback()
	}
}

func (l *lockstepEngine) WhatIf(cands [][]sizeChange) {
	want := l.engines[0].batch(cands)
	for k, e := range l.engines[1:] {
		if got := e.batch(cands); !slices.Equal(got, want) && l.err == nil {
			l.err = fmt.Errorf("BatchWhatIf outcomes at workers %d differ from workers %d: %+v vs %+v",
				l.workers[k+1], l.workers[0], got, want)
		}
	}
}

func (l *lockstepEngine) ResizeBatch(changes []sizeChange) int {
	return l.each("ResizeAll", func(e *sstaEngine) int { return e.ResizeBatch(changes) })
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
