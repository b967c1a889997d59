// Package circuit models gate-level combinational netlists.
//
// A Circuit is a directed acyclic graph of single-output gates. Each gate
// computes a Boolean function of its fanins; the gate's output is the net
// that carries its name (ISCAS-85 semantics). Primary inputs are gates with
// function Input and no fanins; primary outputs are an ordered list of gate
// IDs whose nets leave the circuit.
package circuit

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// GateID identifies a gate within one Circuit. IDs are dense indices into
// Circuit.Gates and remain stable for the life of the circuit.
type GateID int32

// None is the zero-value "no gate" sentinel.
const None GateID = -1

// Fn is the Boolean function computed by a gate.
type Fn uint8

// Supported gate functions.
const (
	Input  Fn = iota // primary input; no fanins
	Buf              // identity, 1 fanin
	Not              // inversion, 1 fanin
	And              // n-ary AND, n >= 1
	Nand             // n-ary NAND, n >= 1
	Or               // n-ary OR, n >= 1
	Nor              // n-ary NOR, n >= 1
	Xor              // n-ary XOR (odd parity), n >= 1
	Xnor             // n-ary XNOR (even parity), n >= 1
	Const0           // constant 0, no fanins
	Const1           // constant 1, no fanins
	numFns
)

var fnNames = [numFns]string{
	Input: "INPUT", Buf: "BUF", Not: "NOT", And: "AND", Nand: "NAND",
	Or: "OR", Nor: "NOR", Xor: "XOR", Xnor: "XNOR",
	Const0: "CONST0", Const1: "CONST1",
}

// String returns the canonical upper-case name of the function.
func (f Fn) String() string {
	if int(f) < len(fnNames) {
		return fnNames[f]
	}
	return fmt.Sprintf("Fn(%d)", uint8(f))
}

// IsLogic reports whether the function is a real logic gate (not an input
// or a constant).
func (f Fn) IsLogic() bool {
	switch f {
	case Input, Const0, Const1:
		return false
	}
	return true
}

// Inverting reports whether the function inverts the underlying monotone
// core (NAND, NOR, NOT, XNOR).
func (f Fn) Inverting() bool {
	switch f {
	case Not, Nand, Nor, Xnor:
		return true
	}
	return false
}

// Eval computes the function over the given input values.
func (f Fn) Eval(in []bool) bool {
	switch f {
	case Const0:
		return false
	case Const1:
		return true
	case Input:
		panic("circuit: Eval on Input gate")
	case Buf:
		return in[0]
	case Not:
		return !in[0]
	case And, Nand:
		v := true
		for _, b := range in {
			v = v && b
		}
		if f == Nand {
			return !v
		}
		return v
	case Or, Nor:
		v := false
		for _, b := range in {
			v = v || b
		}
		if f == Nor {
			return !v
		}
		return v
	case Xor, Xnor:
		v := false
		for _, b := range in {
			v = v != b
		}
		if f == Xnor {
			return !v
		}
		return v
	}
	panic("circuit: Eval on unknown function " + f.String())
}

// FaninBounds returns the legal fanin count range for the function; a max
// of -1 means unbounded. It is the exported face of the arity rules that
// Connect and Validate enforce, used by internal/circuitlint to predict
// them on raw netlists.
func (f Fn) FaninBounds() (min, max int) { return f.minFanin(), f.maxFanin() }

// minFanin returns the minimum legal fanin count for the function.
func (f Fn) minFanin() int {
	switch f {
	case Input, Const0, Const1:
		return 0
	case Buf, Not:
		return 1
	default:
		return 1
	}
}

// maxFanin returns the maximum legal fanin count (-1 = unbounded).
func (f Fn) maxFanin() int {
	switch f {
	case Input, Const0, Const1:
		return 0
	case Buf, Not:
		return 1
	default:
		return -1
	}
}

// Gate is one node of the netlist. SizeIdx selects one of the drive
// strengths of the bound library cell group; it is ignored until technology
// mapping assigns CellKind.
type Gate struct {
	ID      GateID
	Fn      Fn // next to ID, so the two share one word
	Name    string
	Fanin   []GateID
	Fanout  []GateID
	CellRef int // index into a cells.Library group list; -1 = unmapped
	SizeIdx int // drive-strength index within the cell group
}

// Circuit is a combinational netlist. The zero value is an empty circuit
// ready for AddGate/Connect.
type Circuit struct {
	Name  string
	Gates []Gate
	// Outputs lists the primary outputs in declaration order. It grows
	// only through MarkOutput, which keeps the IsOutput index in step;
	// code outside this package reads it and never appends to it.
	Outputs []GateID

	byName map[string]GateID
	inputs []GateID // cache of Input gates in declaration order
	isOut  []bool   // isOut[id] reports id ∈ Outputs; grown by AddGate, set by MarkOutput

	topo      []GateID // cached topological order; nil = dirty
	level     []int32  // cached levels; nil = dirty
	maxLevel  int
	revisions int // bumped on every mutation, for cache safety checks
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]GateID)}
}

// NumGates returns the total number of gates, including primary inputs and
// constants.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumLogicGates returns the number of gates with a logic function (i.e.
// excluding primary inputs and constants).
func (c *Circuit) NumLogicGates() int {
	n := 0
	for i := range c.Gates {
		if c.Gates[i].Fn.IsLogic() {
			n++
		}
	}
	return n
}

// Inputs returns the primary inputs in declaration order. The returned
// slice is shared; callers must not modify it.
func (c *Circuit) Inputs() []GateID { return c.inputs }

// Gate returns a pointer to the gate with the given ID. The pointer stays
// valid until the next AddGate.
func (c *Circuit) Gate(id GateID) *Gate { return &c.Gates[id] }

// Lookup finds a gate by name.
func (c *Circuit) Lookup(name string) (GateID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// MustLookup is Lookup that panics on a missing name; it is intended for
// tests and generators where the name is known to exist.
func (c *Circuit) MustLookup(name string) GateID {
	id, ok := c.byName[name]
	if !ok {
		panic("circuit: no gate named " + name)
	}
	return id
}

// AddGate appends a new gate with the given name and function and returns
// its ID. The name must be unique within the circuit; an empty name is
// replaced by an auto-generated one.
func (c *Circuit) AddGate(name string, fn Fn) (GateID, error) {
	if c.byName == nil {
		c.byName = make(map[string]GateID)
	}
	if name == "" {
		name = fmt.Sprintf("g%d", len(c.Gates))
	}
	if _, dup := c.byName[name]; dup {
		return None, fmt.Errorf("circuit %q: duplicate gate name %q", c.Name, name)
	}
	id := GateID(len(c.Gates))
	c.Gates = append(c.Gates, Gate{ID: id, Name: name, Fn: fn, CellRef: -1})
	c.byName[name] = id
	c.isOut = append(c.isOut, false)
	if fn == Input {
		c.inputs = append(c.inputs, id)
	}
	c.dirty()
	return id, nil
}

// Grow reserves room for n more gates, so a constructor that knows its gate
// count up front adds them without regrowing Gates, the IsOutput index
// or the name map. It adds no gate and leaves the caches alone, but like
// AddGate it may move Gates, invalidating pointers returned by Gate.
// n <= 0 is a no-op.
func (c *Circuit) Grow(n int) {
	if n <= 0 {
		return
	}
	c.Gates = slices.Grow(c.Gates, n)
	c.isOut = slices.Grow(c.isOut, n)
	byName := make(map[string]GateID, len(c.byName)+n)
	maps.Copy(byName, c.byName)
	c.byName = byName
}

// MustAddGate is AddGate that panics on error; for generators.
func (c *Circuit) MustAddGate(name string, fn Fn) GateID {
	id, err := c.AddGate(name, fn)
	if err != nil {
		panic(err)
	}
	return id
}

// Connect wires the output of driver src into the fanin list of gate dst.
// Fanin order is the order of Connect calls.
func (c *Circuit) Connect(src, dst GateID) error {
	if !c.valid(src) || !c.valid(dst) {
		return fmt.Errorf("circuit %q: connect %d -> %d: gate id out of range", c.Name, src, dst)
	}
	if src == dst {
		return fmt.Errorf("circuit %q: self-loop on gate %q", c.Name, c.Gates[dst].Name)
	}
	d := &c.Gates[dst]
	if max := d.Fn.maxFanin(); max >= 0 && len(d.Fanin) >= max {
		return fmt.Errorf("circuit %q: gate %q (%s) cannot take more than %d fanins",
			c.Name, d.Name, d.Fn, max)
	}
	d.Fanin = append(d.Fanin, src)
	c.Gates[src].Fanout = append(c.Gates[src].Fanout, dst)
	c.dirty()
	return nil
}

// MustConnect is Connect that panics on error; for generators.
func (c *Circuit) MustConnect(src, dst GateID) {
	if err := c.Connect(src, dst); err != nil {
		panic(err)
	}
}

// MarkOutput declares the net driven by id as a primary output. A net may
// be marked only once.
func (c *Circuit) MarkOutput(id GateID) error {
	if !c.valid(id) {
		return fmt.Errorf("circuit %q: output gate id %d out of range", c.Name, id)
	}
	if c.isOut[id] {
		return fmt.Errorf("circuit %q: gate %q already marked as output", c.Name, c.Gates[id].Name)
	}
	c.isOut[id] = true
	c.Outputs = append(c.Outputs, id)
	return nil
}

// IsOutput reports, in O(1), whether the net driven by id is a primary
// output. An id outside the circuit is not an output.
func (c *Circuit) IsOutput(id GateID) bool { return c.valid(id) && c.isOut[id] }

// MustMarkOutput is MarkOutput that panics on error.
func (c *Circuit) MustMarkOutput(id GateID) {
	if err := c.MarkOutput(id); err != nil {
		panic(err)
	}
}

func (c *Circuit) valid(id GateID) bool { return id >= 0 && int(id) < len(c.Gates) }

func (c *Circuit) dirty() {
	c.topo = nil
	c.level = nil
	c.revisions++
}

// Revision returns a counter that changes on every structural mutation.
// Analysis caches can use it to detect staleness.
func (c *Circuit) Revision() int { return c.revisions }

// Validate checks structural invariants: fanin arities match functions,
// every non-input gate has at least one fanin, the fanout lists mirror the
// fanin lists, every output is marked on an existing gate, and the graph is
// acyclic. It runs in O(gates + edges). When several edges break the
// fanin/fanout mirror, it reports the first one in gate-ID order.
func (c *Circuit) Validate() error {
	n := len(c.Gates)
	// start[s] first counts the fanin entries naming driver s; the
	// reverse-fanin pass below turns it into the offset of s's run in rev.
	start := make([]int32, n+1)
	for i := range c.Gates {
		g := &c.Gates[i]
		if min := g.Fn.minFanin(); len(g.Fanin) < min {
			return fmt.Errorf("circuit %q: gate %q (%s) has %d fanins, needs at least %d",
				c.Name, g.Name, g.Fn, len(g.Fanin), min)
		}
		if max := g.Fn.maxFanin(); max >= 0 && len(g.Fanin) > max {
			return fmt.Errorf("circuit %q: gate %q (%s) has %d fanins, allows at most %d",
				c.Name, g.Name, g.Fn, len(g.Fanin), max)
		}
		if g.Fn.IsLogic() && len(g.Fanin) == 0 {
			return fmt.Errorf("circuit %q: logic gate %q (%s) has no fanins", c.Name, g.Name, g.Fn)
		}
		for _, s := range g.Fanin {
			if !c.valid(s) {
				return fmt.Errorf("circuit %q: gate %q fanin id %d out of range", c.Name, g.Name, s)
			}
			start[s]++
		}
	}
	// Reverse fanin in CSR form: rev[start[s]:start[s+1]] lists, in
	// ascending gate-ID order, every gate that names s as a fanin, once
	// per occurrence. Prefix sums make start[s] the end of s's run; the
	// backward fill then moves it to the run's beginning.
	for s := 1; s <= n; s++ {
		start[s] += start[s-1]
	}
	rev := make([]GateID, start[n])
	for i := n - 1; i >= 0; i-- {
		fanin := c.Gates[i].Fanin
		for j := len(fanin) - 1; j >= 0; j-- {
			s := fanin[j]
			start[s]--
			rev[start[s]] = GateID(i)
		}
	}
	// Each driver's fanout list must be the same multiset as its run in
	// rev; pending counts the run's sinks not yet matched by a fanout
	// entry, and is all zero again between drivers.
	pending := make([]int32, n)
	var unmirrored error
	for i := range c.Gates {
		g := &c.Gates[i]
		sinks := rev[start[i]:start[i+1]]
		for _, d := range sinks {
			pending[d]++
		}
		for _, d := range g.Fanout {
			if !c.valid(d) {
				return fmt.Errorf("circuit %q: gate %q fanout id %d out of range", c.Name, g.Name, d)
			}
			if pending[d] == 0 {
				return fmt.Errorf("circuit %q: fanout edge %q -> %q has no matching fanin",
					c.Name, g.Name, c.Gates[d].Name)
			}
			pending[d]--
		}
		for _, d := range sinks {
			if pending[d] != 0 && unmirrored == nil {
				unmirrored = fmt.Errorf("circuit %q: fanin edge %q -> %q not mirrored in fanout",
					c.Name, g.Name, c.Gates[d].Name)
			}
			pending[d] = 0
		}
	}
	if unmirrored != nil {
		return unmirrored
	}
	for _, o := range c.Outputs {
		if !c.valid(o) {
			return fmt.Errorf("circuit %q: output id %d out of range", c.Name, o)
		}
	}
	if _, err := c.computeTopo(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns the gates in a topological order (fanins before
// fanouts). The slice is cached and shared; callers must not modify it.
// It returns an error if the graph contains a cycle.
func (c *Circuit) TopoOrder() ([]GateID, error) {
	if c.topo != nil {
		return c.topo, nil
	}
	topo, err := c.computeTopo()
	if err != nil {
		return nil, err
	}
	c.topo = topo
	return topo, nil
}

// MustTopoOrder is TopoOrder that panics on a cyclic graph.
func (c *Circuit) MustTopoOrder() []GateID {
	t, err := c.TopoOrder()
	if err != nil {
		panic(err)
	}
	return t
}

func (c *Circuit) computeTopo() ([]GateID, error) {
	n := len(c.Gates)
	indeg := make([]int32, n)
	for i := range c.Gates {
		indeg[i] = int32(len(c.Gates[i].Fanin))
	}
	order := make([]GateID, 0, n)
	queue := make([]GateID, 0, n)
	for i := range c.Gates {
		if indeg[i] == 0 {
			queue = append(queue, GateID(i))
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, d := range c.Gates[id].Fanout {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("circuit %q: cycle detected (%d of %d gates ordered)", c.Name, len(order), n)
	}
	return order, nil
}

// Levels returns, for every gate, its logic level: inputs and constants are
// level 0, every other gate is 1 + max level of its fanins. The second
// return value is the maximum level (circuit depth).
func (c *Circuit) Levels() ([]int32, int) {
	if c.level != nil {
		return c.level, c.maxLevel
	}
	topo := c.MustTopoOrder()
	lv := make([]int32, len(c.Gates))
	max := 0
	for _, id := range topo {
		g := &c.Gates[id]
		if !g.Fn.IsLogic() {
			continue
		}
		best := int32(0)
		for _, s := range g.Fanin {
			if lv[s] > best {
				best = lv[s]
			}
		}
		lv[id] = best + 1
		if int(lv[id]) > max {
			max = int(lv[id])
		}
	}
	c.level = lv
	c.maxLevel = max
	return lv, max
}

// Depth returns the maximum logic level of the circuit.
func (c *Circuit) Depth() int {
	_, d := c.Levels()
	return d
}

// TransitiveFanin collects the gates reachable backward from the seeds
// within the given number of levels (depth 1 = immediate fanins). The seeds
// themselves are included. depth < 0 means unbounded (full cone).
func (c *Circuit) TransitiveFanin(seeds []GateID, depth int) []GateID {
	return c.cone(seeds, depth, func(g *Gate) []GateID { return g.Fanin })
}

// TransitiveFanout collects the gates reachable forward from the seeds
// within the given number of levels. The seeds themselves are included.
// depth < 0 means unbounded.
func (c *Circuit) TransitiveFanout(seeds []GateID, depth int) []GateID {
	return c.cone(seeds, depth, func(g *Gate) []GateID { return g.Fanout })
}

func (c *Circuit) cone(seeds []GateID, depth int, next func(*Gate) []GateID) []GateID {
	seen := make(map[GateID]bool, len(seeds)*4)
	var out []GateID
	frontier := append([]GateID(nil), seeds...)
	for _, s := range frontier {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for d := 0; depth < 0 || d < depth; d++ {
		var nextFrontier []GateID
		for _, id := range frontier {
			for _, n := range next(&c.Gates[id]) {
				if !seen[n] {
					seen[n] = true
					out = append(out, n)
					nextFrontier = append(nextFrontier, n)
				}
			}
		}
		if len(nextFrontier) == 0 {
			break
		}
		frontier = nextFrontier
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats summarizes a circuit for reporting.
type Stats struct {
	Gates      int // logic gates
	Inputs     int
	Outputs    int
	Depth      int
	MaxFanin   int
	MaxFanout  int
	FnCounts   map[Fn]int
	AvgFanin   float64
	EdgeCount  int
	Levelized  bool
	TotalGates int // including inputs/constants
}

// ComputeStats walks the circuit once and returns its statistics.
func (c *Circuit) ComputeStats() Stats {
	s := Stats{
		Inputs:     len(c.inputs),
		Outputs:    len(c.Outputs),
		FnCounts:   make(map[Fn]int),
		TotalGates: len(c.Gates),
	}
	sumFanin := 0
	for i := range c.Gates {
		g := &c.Gates[i]
		s.FnCounts[g.Fn]++
		if g.Fn.IsLogic() {
			s.Gates++
			sumFanin += len(g.Fanin)
			if len(g.Fanin) > s.MaxFanin {
				s.MaxFanin = len(g.Fanin)
			}
		}
		if len(g.Fanout) > s.MaxFanout {
			s.MaxFanout = len(g.Fanout)
		}
		s.EdgeCount += len(g.Fanin)
	}
	if s.Gates > 0 {
		s.AvgFanin = float64(sumFanin) / float64(s.Gates)
	}
	s.Depth = c.Depth()
	s.Levelized = true
	return s
}

// Clone returns a deep copy of the circuit, including cell bindings and
// size assignments.
func (c *Circuit) Clone() *Circuit {
	cp := &Circuit{
		Name:      c.Name,
		Gates:     make([]Gate, len(c.Gates)),
		Outputs:   append([]GateID(nil), c.Outputs...),
		byName:    make(map[string]GateID, len(c.byName)),
		inputs:    append([]GateID(nil), c.inputs...),
		isOut:     append([]bool(nil), c.isOut...),
		revisions: c.revisions,
	}
	for i := range c.Gates {
		g := c.Gates[i]
		g.Fanin = append([]GateID(nil), g.Fanin...)
		g.Fanout = append([]GateID(nil), g.Fanout...)
		cp.Gates[i] = g
	}
	for k, v := range c.byName {
		cp.byName[k] = v
	}
	return cp
}

// SizeSnapshot captures the size assignment of every gate so an optimizer
// can roll back.
func (c *Circuit) SizeSnapshot() []int {
	s := make([]int, len(c.Gates))
	for i := range c.Gates {
		s[i] = c.Gates[i].SizeIdx
	}
	return s
}

// RestoreSizes applies a snapshot taken by SizeSnapshot.
func (c *Circuit) RestoreSizes(s []int) {
	if len(s) != len(c.Gates) {
		panic("circuit: size snapshot length mismatch")
	}
	for i := range c.Gates {
		c.Gates[i].SizeIdx = s[i]
	}
}
