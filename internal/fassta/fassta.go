// Package fassta implements FASSTA, the paper's fast statistical timing
// engine (section 4.3): instead of full discrete PDFs it propagates only
// means and variances, using Clark's max formulas with the quadratic erf
// approximation and the dominance shortcuts of eqs. 5/6.
//
// FASSTA never runs on the whole circuit. The optimizer extracts a small
// subcircuit around each candidate gate (two levels of transitive fanin
// and fanout by default, section 4.5), freezes the statistical boundary
// conditions from the last FULLSSTA, and uses FASSTA to score every
// available size of the candidate with the weighted cost
// mu + lambda*sigma of eq. 7.
package fassta

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/circuit"
	"repro/internal/normal"
	"repro/internal/ssta"
	"repro/internal/synth"
	"repro/internal/variation"
)

// DefaultDepth is the subcircuit radius the paper found "sufficiently
// accurate without being too costly": two levels of transitive fanins and
// fanouts.
const DefaultDepth = 2

// Subcircuit is a frozen evaluation region around one candidate gate.
// Arrival moments at its boundary come from the last FULLSSTA; inside, it
// re-derives delays from the library tables (so load changes caused by
// resizing the target are captured) and propagates moments with the fast
// max operator.
type Subcircuit struct {
	Target  circuit.GateID
	Members []circuit.GateID // topo-ordered member gates
	Outputs []circuit.GateID // member gates whose cost is scored

	d    *synth.Design
	full *ssta.Result
	vm   *variation.Model

	// pins holds, for every fanin pin of every member in Members order,
	// the driver's member index, or -1 for a driver outside the
	// subcircuit (read from the frozen FULLSSTA boundary).
	pins []int32
	// outIdx is the member index of each entry of Outputs.
	outIdx   []int32
	arrival  []normal.Moments // scratch, indexed like Members
	slew     []float64        // scratch: output slews this pass
	baseLoad []float64        // load of each member at current sizes
	// drivesTarget[i] counts how many fanin pins of the target are driven
	// by member i (multiplicity matters for load adjustment).
	drivesTarget []int
	// restVar[k] completes subcircuit output k's variance to circuit
	// scale: the frozen circuit variance minus the output's own frozen
	// variance. Scoring sqrt(var_local + restVar) prices a candidate's
	// variance change at the true global exchange rate
	// dsigma = dvar / (2*sigma_circuit); scoring the bare local sigma
	// would overvalue it by sigma_circuit/sigma_local and drive the
	// optimizer into mean-expensive upsizing the circuit never recoups.
	restVar []float64
}

// Extractor amortizes a per-design index and scratch across the many
// Extract calls one optimizer iteration makes (one per WNSS-path gate):
// every gate's topological position, and visit and membership marks
// holding per-use stamps so no call has to clear them. One
// extraction allocates only the subcircuit it returns. An Extractor is
// not safe for concurrent use.
type Extractor struct {
	d   *synth.Design
	rev int

	pos   []int32  // topological position of each gate
	seen  []uint32 // == a walk's stamp: visited by that cone walk
	mark  []uint32 // == an extraction's stamp: member of that subcircuit
	idx   []int32  // member index, valid where mark holds the current stamp
	epoch uint32   // the last stamp handed out

	members, frontier, next []circuit.GateID
}

// NewExtractor builds an extractor bound to the design.
func NewExtractor(d *synth.Design) *Extractor {
	return &Extractor{d: d, rev: -1}
}

// Prime builds (or, after a structural change, rebuilds) the
// topological index and the mark arrays eagerly; Extract calls it
// itself, so priming only moves that cost out of the first extraction.
func (e *Extractor) Prime() {
	c := e.d.Circuit
	if e.pos != nil && e.rev == c.Revision() {
		return
	}
	n := c.NumGates()
	e.pos = make([]int32, n)
	for i, id := range c.MustTopoOrder() {
		e.pos[id] = int32(i)
	}
	e.seen = make([]uint32, n)
	e.mark = make([]uint32, n)
	e.idx = make([]int32, n)
	e.epoch = 0
	e.rev = c.Revision()
}

// walk visits the gates within depth levels of seed, backward through
// fanins or forward through fanouts, seed included, stamping them v in
// seen, and adds the logic gates among them to the members stamped in.
func (e *Extractor) walk(seed circuit.GateID, depth int, forward bool, in, v uint32) {
	c := e.d.Circuit
	add := func(id circuit.GateID) {
		if e.mark[id] != in && c.Gate(id).Fn.IsLogic() {
			e.mark[id] = in
			e.members = append(e.members, id)
		}
	}
	e.seen[seed] = v
	add(seed)
	e.frontier = append(e.frontier[:0], seed)
	for l := 0; l < depth && len(e.frontier) > 0; l++ {
		e.next = e.next[:0]
		for _, id := range e.frontier {
			nbrs := c.Gate(id).Fanin
			if forward {
				nbrs = c.Gate(id).Fanout
			}
			for _, nb := range nbrs {
				if e.seen[nb] != v {
					e.seen[nb] = v
					add(nb)
					e.next = append(e.next, nb)
				}
			}
		}
		e.frontier, e.next = e.next, e.frontier
	}
}

// Extract builds the subcircuit of the given radius around target.
func (e *Extractor) Extract(full *ssta.Result, vm *variation.Model, target circuit.GateID, depth int) *Subcircuit {
	e.Prime()
	if depth <= 0 {
		depth = DefaultDepth
	}
	d := e.d
	c := d.Circuit
	// Three fresh stamps: the membership mark and one per cone walk.
	if e.epoch > math.MaxUint32-3 {
		clear(e.seen)
		clear(e.mark)
		e.epoch = 0
	}
	in := e.epoch + 1
	e.epoch += 3
	e.members = e.members[:0]
	e.walk(target, depth, false, in, in+1)
	e.walk(target, depth, true, in, in+2)
	members := slices.Clone(e.members)
	// Topo order: sort by position in the circuit's topological order.
	slices.SortFunc(members, func(a, b circuit.GateID) int { return cmp.Compare(e.pos[a], e.pos[b]) })
	for i, id := range members {
		e.idx[id] = int32(i)
	}

	s := &Subcircuit{
		Target:  target,
		Members: members,
		d:       d,
		full:    full,
		vm:      vm,
	}
	// Outputs: every member whose timing leaves the subcircuit — primary
	// outputs, members with a fanout outside S, and dangling members.
	// Members with external fanouts matter even when they also fan out
	// internally: when the target is upsized its drivers slow down, and
	// the sibling paths through those drivers would otherwise never be
	// priced, letting the optimizer underestimate the mean cost of every
	// upsizing move.
	for i, id := range members {
		g := c.Gate(id)
		escapes := c.IsOutput(id) || len(g.Fanout) == 0
		for _, fo := range g.Fanout {
			if e.mark[fo] != in {
				escapes = true
				break
			}
		}
		if escapes {
			s.Outputs = append(s.Outputs, id)
			s.outIdx = append(s.outIdx, int32(i))
		}
		for _, f := range g.Fanin {
			j := int32(-1)
			if e.mark[f] == in {
				j = e.idx[f]
			}
			s.pins = append(s.pins, j)
		}
	}
	s.arrival = make([]normal.Moments, len(members))
	s.slew = make([]float64, len(members))
	s.baseLoad = make([]float64, len(members))
	s.drivesTarget = make([]int, len(members))
	for i, id := range members {
		s.baseLoad[i] = d.Load(id)
	}
	s.restVar = make([]float64, len(s.Outputs))
	// The mean-delay baseline runs with a nominal-only analysis (no node
	// moments); it only calls CostDeterministic, so the completion stays
	// zero there.
	if full.Node != nil {
		circVar := full.Sigma * full.Sigma
		for k, id := range s.Outputs {
			rest := circVar - full.Node[id].Var
			if rest < 0 {
				rest = 0
			}
			s.restVar[k] = rest
		}
	}
	for _, f := range c.Gate(target).Fanin {
		if e.mark[f] == in {
			s.drivesTarget[e.idx[f]]++
		}
	}
	return s
}

// Extract builds the subcircuit of the given radius around target
// through a one-use Extractor.
func Extract(d *synth.Design, full *ssta.Result, vm *variation.Model, target circuit.GateID, depth int) *Subcircuit {
	return NewExtractor(d).Extract(full, vm, target, depth)
}

// Cost evaluates the subcircuit with the target at candidate size
// sizeIdx, returning the paper's eq. 7 cost: max over subcircuit outputs
// of mean + lambda*sigma. Fanin arrival moments come from inside the
// subcircuit where available and from the frozen FULLSSTA boundary
// otherwise; the target's size change adjusts both its own delay and the
// load-dependent delay of its drivers. The design itself is not mutated.
func (s *Subcircuit) Cost(sizeIdx int, lambda float64) float64 {
	return s.costWith(sizeIdx, lambda, normal.MaxApprox)
}

// CostDeterministic is the inner evaluation the mean-delay baseline
// optimizer uses: same region and load handling, but plain deterministic
// max of arrival means and lambda ignored.
func (s *Subcircuit) CostDeterministic(sizeIdx int) float64 {
	c := s.d.Circuit
	curCell := s.d.Cell(s.Target)
	candCell := s.d.CellAt(s.Target, sizeIdx)
	capDelta := candCell.InputCap - curCell.InputCap

	worst := math.Inf(-1)
	p := 0
	for i, id := range s.Members {
		g := c.Gate(id)
		arr := 0.0
		inSlew := 0.0
		for _, f := range g.Fanin {
			var m, slew float64
			if j := s.pins[p]; j >= 0 {
				m = s.arrival[j].Mean
				slew = s.slew[j]
			} else {
				m = s.full.STA.Arrival[f]
				slew = s.full.STA.Slew[f]
			}
			p++
			if m > arr {
				arr = m
			}
			if slew > inSlew {
				inSlew = slew
			}
		}
		load := s.baseLoad[i] + float64(s.drivesTarget[i])*capDelta
		cell := candCell
		if id != s.Target {
			cell = s.d.Cell(id)
		}
		mean := cell.Delay.Lookup(inSlew, load)
		s.slew[i] = cell.OutSlew.Lookup(inSlew, load)
		s.arrival[i] = normal.Moments{Mean: arr + mean}
	}
	for _, i := range s.outIdx {
		if m := s.arrival[i].Mean; m > worst {
			worst = m
		}
	}
	return worst
}

// BestSize scans the available sizes of the target and returns the one
// minimizing Cost, along with the winning and current costs. This is the
// inner loop of the paper's StatisticalGreedy (Fig. 2). maxStep bounds
// how far from the current size the scan may move (<= 0 scans all sizes,
// the paper's "foreach I in sizes of g"); the optimizer passes 1 so each
// outer iteration makes one step per gate and the global re-analysis
// between iterations corrects course — an unbounded batch of locally
// priced jumps systematically overshoots the mean because every
// subcircuit evaluation prices its neighbours at their pre-batch sizes.
func (s *Subcircuit) BestSize(lambda float64, maxStep int) (best int, bestCost, currentCost float64) {
	return s.scan(maxStep, func(size int) float64 { return s.Cost(size, lambda) })
}

// BestSizeDeterministic is BestSize for the mean-delay baseline.
func (s *Subcircuit) BestSizeDeterministic(maxStep int) (best int, bestCost, currentCost float64) {
	return s.scan(maxStep, s.CostDeterministic)
}

func (s *Subcircuit) scan(maxStep int, cost func(int) float64) (best int, bestCost, currentCost float64) {
	cur := s.d.Circuit.Gate(s.Target).SizeIdx
	n := s.d.Lib.NumSizes(s.d.Kind(s.Target))
	lo, hi := 0, n-1
	if maxStep > 0 {
		if l := cur - maxStep; l > lo {
			lo = l
		}
		if h := cur + maxStep; h < hi {
			hi = h
		}
	}
	currentCost = cost(cur)
	best, bestCost = cur, currentCost
	for size := lo; size <= hi; size++ {
		if size == cur {
			continue
		}
		if c := cost(size); c < bestCost {
			best, bestCost = size, c
		}
	}
	return best, bestCost, currentCost
}
