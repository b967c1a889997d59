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
	"math"
	"sort"

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

	inS      map[circuit.GateID]int // member -> dense index
	arrival  []normal.Moments       // scratch, indexed like Members
	slew     []float64              // scratch: output slews this pass
	baseLoad []float64              // load of each member at current sizes
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

// Extractor amortizes the topological-position index across the many
// Extract calls one optimizer iteration makes (one per WNSS-path gate).
type Extractor struct {
	d       *synth.Design
	topoPos map[circuit.GateID]int
	rev     int
}

// NewExtractor builds an extractor bound to the design.
func NewExtractor(d *synth.Design) *Extractor {
	return &Extractor{d: d, rev: -1}
}

// Extract is like the package-level Extract but reuses the cached
// topological index while the circuit structure is unchanged.
func (e *Extractor) Extract(full *ssta.Result, vm *variation.Model, target circuit.GateID, depth int) *Subcircuit {
	e.Prime()
	return extract(e.d, full, vm, target, depth, e.topoPos)
}

// Prime builds (or refreshes) the cached topological index eagerly.
// Subsequent Extract calls only read the index, so a caller that primes
// once may extract subcircuits concurrently as long as the circuit
// structure is not mutated meanwhile.
func (e *Extractor) Prime() {
	if e.topoPos == nil || e.rev != e.d.Circuit.Revision() {
		topo := e.d.Circuit.MustTopoOrder()
		e.topoPos = make(map[circuit.GateID]int, len(topo))
		for i, id := range topo {
			e.topoPos[id] = i
		}
		e.rev = e.d.Circuit.Revision()
	}
}

// Extract builds the subcircuit of the given radius around target.
func Extract(d *synth.Design, full *ssta.Result, vm *variation.Model, target circuit.GateID, depth int) *Subcircuit {
	topo := d.Circuit.MustTopoOrder()
	topoPos := make(map[circuit.GateID]int, len(topo))
	for i, id := range topo {
		topoPos[id] = i
	}
	return extract(d, full, vm, target, depth, topoPos)
}

func extract(d *synth.Design, full *ssta.Result, vm *variation.Model, target circuit.GateID, depth int, topoPos map[circuit.GateID]int) *Subcircuit {
	if depth <= 0 {
		depth = DefaultDepth
	}
	c := d.Circuit
	seed := []circuit.GateID{target}
	set := make(map[circuit.GateID]bool)
	for _, id := range c.TransitiveFanin(seed, depth) {
		if c.Gate(id).Fn.IsLogic() {
			set[id] = true
		}
	}
	for _, id := range c.TransitiveFanout(seed, depth) {
		if c.Gate(id).Fn.IsLogic() {
			set[id] = true
		}
	}
	members := make([]circuit.GateID, 0, len(set))
	for id := range set {
		members = append(members, id)
	}
	// Topo order: sort by position in the circuit's topological order.
	sort.Slice(members, func(i, j int) bool { return topoPos[members[i]] < topoPos[members[j]] })

	s := &Subcircuit{
		Target:  target,
		Members: members,
		d:       d,
		full:    full,
		vm:      vm,
		inS:     make(map[circuit.GateID]int, len(members)),
	}
	for i, id := range members {
		s.inS[id] = i
	}
	// Outputs: every member whose timing leaves the subcircuit — primary
	// outputs, members with a fanout outside S, and dangling members.
	// Members with external fanouts matter even when they also fan out
	// internally: when the target is upsized its drivers slow down, and
	// the sibling paths through those drivers would otherwise never be
	// priced, letting the optimizer underestimate the mean cost of every
	// upsizing move.
	for _, id := range members {
		escapes := c.IsOutput(id) || len(c.Gate(id).Fanout) == 0
		for _, fo := range c.Gate(id).Fanout {
			if _, ok := s.inS[fo]; !ok {
				escapes = true
				break
			}
		}
		if escapes {
			s.Outputs = append(s.Outputs, id)
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
		if i, ok := s.inS[f]; ok {
			s.drivesTarget[i]++
		}
	}
	return s
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
	for i, id := range s.Members {
		g := c.Gate(id)
		arr := 0.0
		inSlew := 0.0
		for _, f := range g.Fanin {
			var m, slew float64
			if j, ok := s.inS[f]; ok {
				m = s.arrival[j].Mean
				slew = s.slew[j]
			} else {
				m = s.full.STA.Arrival[f]
				slew = s.full.STA.Slew[f]
			}
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
	for _, id := range s.Outputs {
		if m := s.arrival[s.inS[id]].Mean; m > worst {
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
