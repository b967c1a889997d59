// Package synth performs technology mapping: it rewrites a generic netlist
// (arbitrary circuit.Fn gates) into one where every logic gate is bound to
// a library cell kind with a drive-strength index, decomposing fanins that
// exceed library arities and expanding wide XORs into 2-input trees.
//
// Mapping is structural and function-preserving; tests verify equivalence
// with the unmapped netlist via logicsim. The mapped circuit seeds every
// gate at minimum size — the starting point both for the paper's
// mean-delay baseline optimizer and for StatisticalGreedy.
package synth

import (
	"fmt"

	"repro/internal/cells"
	"repro/internal/circuit"
)

// Design couples a mapped circuit with the library it is mapped to, and
// provides the electrical queries (cell binding, pin load, area) shared by
// the timing engines and the optimizer.
type Design struct {
	Circuit *circuit.Circuit
	Lib     *cells.Library
}

// Kind returns the library kind bound to the gate. It panics on unmapped
// gates, which indicates a pipeline bug.
func (d *Design) Kind(id circuit.GateID) cells.Kind {
	ref := d.Circuit.Gate(id).CellRef
	if ref < 0 {
		panic(fmt.Sprintf("synth: gate %q is unmapped", d.Circuit.Gate(id).Name))
	}
	return cells.Kind(ref)
}

// Cell returns the sized cell currently bound to the gate.
func (d *Design) Cell(id circuit.GateID) *cells.Cell {
	g := d.Circuit.Gate(id)
	return d.Lib.Cell(cells.Kind(g.CellRef), g.SizeIdx)
}

// CellAt returns the cell the gate would have at a different size index.
func (d *Design) CellAt(id circuit.GateID, sizeIdx int) *cells.Cell {
	return d.Lib.Cell(d.Kind(id), sizeIdx)
}

// Load returns the capacitive load on the gate's output: the input-pin
// capacitances of all fanout cells, plus the primary-output load if the
// net is a PO. Interconnect capacitance is ignored (paper assumption).
// It costs O(fanout).
func (d *Design) Load(id circuit.GateID) float64 {
	g := d.Circuit.Gate(id)
	load := 0.0
	for _, fo := range g.Fanout {
		load += d.Cell(fo).InputCap
	}
	if d.Circuit.IsOutput(id) {
		load += d.Lib.PrimaryOutputLoad
	}
	return load
}

// Area returns the total cell area of the design.
func (d *Design) Area() float64 {
	a := 0.0
	for i := range d.Circuit.Gates {
		g := &d.Circuit.Gates[i]
		if g.CellRef < 0 {
			continue
		}
		a += d.Lib.Cell(cells.Kind(g.CellRef), g.SizeIdx).Area
	}
	return a
}

// Map rewrites the generic circuit into a technology-mapped Design over
// lib. Every gate of the result is bound to a cell kind at minimum size.
// Constants are not supported (the generators never emit them).
func Map(c *circuit.Circuit, lib *cells.Library) (*Design, error) {
	out := circuit.New(c.Name)
	cellsTotal := 0
	for i := range c.Gates {
		cellsTotal += cellCount(&c.Gates[i])
	}
	out.Grow(cellsTotal)
	remap := make([]circuit.GateID, c.NumGates())
	topo, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	m := &mapper{src: c, dst: out, lib: lib, remap: remap}
	for _, id := range topo {
		g := c.Gate(id)
		nid, err := m.mapGate(g)
		if err != nil {
			return nil, err
		}
		remap[id] = nid
	}
	for _, o := range c.Outputs {
		if err := out.MarkOutput(remap[o]); err != nil {
			return nil, err
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return &Design{Circuit: out, Lib: lib}, nil
}

type mapper struct {
	src   *circuit.Circuit
	dst   *circuit.Circuit
	lib   *cells.Library
	remap []circuit.GateID
	seq   int
}

func (m *mapper) fresh(base string) string {
	m.seq++
	return fmt.Sprintf("%s_m%d", base, m.seq)
}

// cellGate adds a gate bound to kind at minimum size.
func (m *mapper) cellGate(name string, kind cells.Kind, fanins []circuit.GateID) (circuit.GateID, error) {
	if m.lib.Group(kind) == nil {
		return circuit.None, fmt.Errorf("synth: library %s does not stock %s", m.lib.Name, kind)
	}
	if want := kind.Inputs(); want != len(fanins) {
		return circuit.None, fmt.Errorf("synth: %s takes %d inputs, got %d", kind, want, len(fanins))
	}
	fn := fnOfKind(kind)
	id, err := m.dst.AddGate(name, fn)
	if err != nil {
		return circuit.None, err
	}
	g := m.dst.Gate(id)
	g.CellRef = int(kind)
	g.SizeIdx = 0
	for _, s := range fanins {
		if err := m.dst.Connect(s, id); err != nil {
			return circuit.None, err
		}
	}
	return id, nil
}

// fnOfKind gives the Boolean function of each cell kind.
func fnOfKind(k cells.Kind) circuit.Fn {
	switch k {
	case cells.INV:
		return circuit.Not
	case cells.BUF:
		return circuit.Buf
	case cells.NAND2, cells.NAND3, cells.NAND4:
		return circuit.Nand
	case cells.NOR2, cells.NOR3, cells.NOR4:
		return circuit.Nor
	case cells.AND2, cells.AND3, cells.AND4:
		return circuit.And
	case cells.OR2, cells.OR3, cells.OR4:
		return circuit.Or
	case cells.XOR2:
		return circuit.Xor
	case cells.XNOR2:
		return circuit.Xnor
	}
	panic("synth: no function for kind " + k.String())
}

// kindFamily returns the kind implementing fn at the given arity, or
// NumKinds if the family has no cell of that arity.
func kindFamily(fn circuit.Fn, arity int) cells.Kind {
	type fam struct{ k2, k3, k4 cells.Kind }
	var f fam
	switch fn {
	case circuit.And:
		f = fam{cells.AND2, cells.AND3, cells.AND4}
	case circuit.Nand:
		f = fam{cells.NAND2, cells.NAND3, cells.NAND4}
	case circuit.Or:
		f = fam{cells.OR2, cells.OR3, cells.OR4}
	case circuit.Nor:
		f = fam{cells.NOR2, cells.NOR3, cells.NOR4}
	case circuit.Xor:
		if arity == 2 {
			return cells.XOR2
		}
		return cells.NumKinds
	case circuit.Xnor:
		if arity == 2 {
			return cells.XNOR2
		}
		return cells.NumKinds
	default:
		return cells.NumKinds
	}
	switch arity {
	case 2:
		return f.k2
	case 3:
		return f.k3
	case 4:
		return f.k4
	}
	return cells.NumKinds
}

func (m *mapper) mapGate(g *circuit.Gate) (circuit.GateID, error) {
	fanins := make([]circuit.GateID, len(g.Fanin))
	for i, s := range g.Fanin {
		fanins[i] = m.remap[s]
	}
	switch g.Fn {
	case circuit.Input:
		return m.dst.AddGate(g.Name, circuit.Input)
	case circuit.Const0, circuit.Const1:
		return circuit.None, fmt.Errorf("synth: constant gate %q not mappable", g.Name)
	case circuit.Buf:
		return m.cellGate(g.Name, cells.BUF, fanins)
	case circuit.Not:
		return m.cellGate(g.Name, cells.INV, fanins)
	}
	arity := len(fanins)
	if arity == 1 {
		// Degenerate n-ary gate: identity or inversion.
		if g.Fn.Inverting() {
			return m.cellGate(g.Name, cells.INV, fanins)
		}
		return m.cellGate(g.Name, cells.BUF, fanins)
	}
	switch g.Fn {
	case circuit.Xor, circuit.Xnor:
		return m.mapXorTree(g.Name, g.Fn, fanins)
	case circuit.And, circuit.Or, circuit.Nand, circuit.Nor:
		return m.mapMonotone(g.Name, g.Fn, fanins)
	}
	return circuit.None, fmt.Errorf("synth: unmappable function %s on gate %q", g.Fn, g.Name)
}

// cellCount is how many gates mapGate adds for g: one, except that an
// XOR/XNOR of n inputs becomes n-1 XOR2 cells (mapXorTree) and a
// monotone gate wider than four inputs a tree of up-to-4-input cells
// (mapMonotone). Map reserves the total, so the mapped circuit is built
// without regrowing its gate slice.
func cellCount(g *circuit.Gate) int {
	n := len(g.Fanin)
	switch g.Fn {
	case circuit.Xor, circuit.Xnor:
		return max(n-1, 1)
	case circuit.And, circuit.Or, circuit.Nand, circuit.Nor:
		count := 1
		for n > 4 {
			count += n / 4 // full chunks
			if n%4 >= 2 {
				count++ // a partial chunk of two or three
			}
			n = (n + 3) / 4
		}
		return count
	}
	return 1
}

// mapMonotone maps AND/OR/NAND/NOR of any arity, using the widest stocked
// cells (arity <= 4) and reducing wider fanins with trees of the monotone
// core function.
func (m *mapper) mapMonotone(name string, fn circuit.Fn, fanins []circuit.GateID) (circuit.GateID, error) {
	core := fn
	if fn == circuit.Nand {
		core = circuit.And
	}
	if fn == circuit.Nor {
		core = circuit.Or
	}
	level := fanins
	for len(level) > 4 {
		var next []circuit.GateID
		for i := 0; i < len(level); i += 4 {
			end := i + 4
			if end > len(level) {
				end = len(level)
			}
			chunk := level[i:end]
			if len(chunk) == 1 {
				next = append(next, chunk[0])
				continue
			}
			id, err := m.cellGate(m.fresh(name), kindFamily(core, len(chunk)), chunk)
			if err != nil {
				return circuit.None, err
			}
			next = append(next, id)
		}
		level = next
	}
	return m.cellGate(name, kindFamily(fn, len(level)), level)
}

// mapXorTree maps XOR/XNOR of any arity into a balanced tree of XOR2 with
// the final gate carrying the inversion if needed.
func (m *mapper) mapXorTree(name string, fn circuit.Fn, fanins []circuit.GateID) (circuit.GateID, error) {
	level := fanins
	for len(level) > 2 {
		var next []circuit.GateID
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			id, err := m.cellGate(m.fresh(name), cells.XOR2, level[i:i+2])
			if err != nil {
				return circuit.None, err
			}
			next = append(next, id)
		}
		level = next
	}
	kind := cells.XOR2
	if fn == circuit.Xnor {
		kind = cells.XNOR2
	}
	return m.cellGate(name, kind, level)
}
