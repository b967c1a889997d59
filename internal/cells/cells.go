// Package cells provides the standard-cell library substrate: cell kinds,
// drive strengths, NLDM-style lookup-table delay/slew models with bilinear
// interpolation, and a built-in 90nm-class library generated from first
// principles (RC scaling).
//
// This replaces the industrial lookup-table library the paper synthesized
// against (see DESIGN.md, substitutions). The model class is the same:
// per-cell 2-D tables delay(input slew, output load) and outSlew(input
// slew, output load), per-size input capacitance and area, 8 drive
// strengths per logic function.
package cells

import (
	"fmt"
	"math"
	"sort"
)

// Kind identifies a library cell function+arity (e.g. NAND2). Kinds mirror
// circuit.Fn but are restricted to the arities the library actually stocks.
type Kind uint8

// Stocked cell kinds.
const (
	INV Kind = iota
	BUF
	NAND2
	NAND3
	NAND4
	NOR2
	NOR3
	NOR4
	AND2
	AND3
	AND4
	OR2
	OR3
	OR4
	XOR2
	XNOR2
	NumKinds
)

var kindNames = [NumKinds]string{
	INV: "INV", BUF: "BUF",
	NAND2: "NAND2", NAND3: "NAND3", NAND4: "NAND4",
	NOR2: "NOR2", NOR3: "NOR3", NOR4: "NOR4",
	AND2: "AND2", AND3: "AND3", AND4: "AND4",
	OR2: "OR2", OR3: "OR3", OR4: "OR4",
	XOR2: "XOR2", XNOR2: "XNOR2",
}

// String returns the library name of the kind.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind resolves a kind by its library name.
func ParseKind(s string) (Kind, bool) {
	for i := Kind(0); i < NumKinds; i++ {
		if kindNames[i] == s {
			return i, true
		}
	}
	return 0, false
}

// Inputs returns the number of input pins of the kind.
func (k Kind) Inputs() int {
	switch k {
	case INV, BUF:
		return 1
	case NAND2, NOR2, AND2, OR2, XOR2, XNOR2:
		return 2
	case NAND3, NOR3, AND3, OR3:
		return 3
	case NAND4, NOR4, AND4, OR4:
		return 4
	}
	return 0
}

// Table2D is a lookup table indexed by input slew (rows) and output load
// (columns), with bilinear interpolation inside the grid and linear
// extrapolation outside it. Values, slews and loads must be strictly
// increasing along their axes.
type Table2D struct {
	Slews  []float64   // ps, ascending
	Loads  []float64   // fF, ascending
	Values [][]float64 // [len(Slews)][len(Loads)], ps
}

// Lookup returns the bilinearly interpolated table value at (slew, load).
func (t *Table2D) Lookup(slew, load float64) float64 {
	i, fi := locate(t.Slews, slew)
	j, fj := locate(t.Loads, load)
	v00 := t.Values[i][j]
	v01 := t.Values[i][j+1]
	v10 := t.Values[i+1][j]
	v11 := t.Values[i+1][j+1]
	return v00*(1-fi)*(1-fj) + v01*(1-fi)*fj + v10*fi*(1-fj) + v11*fi*fj
}

// Validate checks that the table is a well-formed grid of physical
// values: at least two points per index (Lookup interpolates between
// neighbours), indices finite, non-negative and strictly ascending, one
// row per slew and one value per load, every value finite and
// non-negative.
func (t *Table2D) Validate() error {
	for _, ax := range []struct {
		name string
		xs   []float64
	}{{"index_1", t.Slews}, {"index_2", t.Loads}} {
		if len(ax.xs) < 2 {
			return fmt.Errorf("%s has %d points, want at least 2", ax.name, len(ax.xs))
		}
		for i, x := range ax.xs {
			if err := CheckQuantity(ax.name+" entry", x); err != nil {
				return err
			}
			if i > 0 && x <= ax.xs[i-1] {
				return fmt.Errorf("%s not ascending at entry %d (%g after %g)", ax.name, i, x, ax.xs[i-1])
			}
		}
	}
	if len(t.Values) != len(t.Slews) {
		return fmt.Errorf("%d rows, want %d", len(t.Values), len(t.Slews))
	}
	for _, row := range t.Values {
		if len(row) != len(t.Loads) {
			return fmt.Errorf("row has %d values, want %d", len(row), len(t.Loads))
		}
		for _, v := range row {
			if err := CheckQuantity("value", v); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckQuantity rejects a physical quantity (a time, capacitance, area,
// resistance or drive) that is not a finite, non-negative number.
func CheckQuantity(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("%s %g is not a finite non-negative number", name, v)
	}
	return nil
}

// locate finds the interpolation cell for x in ascending axis xs and the
// fractional position within it. Outside the axis range the fraction goes
// below 0 or above 1, giving linear extrapolation from the edge cell.
func locate(xs []float64, x float64) (idx int, frac float64) {
	n := len(xs)
	if n < 2 {
		return 0, 0
	}
	// sort.SearchFloat64s finds the insertion point.
	i := sort.SearchFloat64s(xs, x)
	switch {
	case i <= 0:
		idx = 0
	case i >= n:
		idx = n - 2
	default:
		idx = i - 1
	}
	span := xs[idx+1] - xs[idx]
	if span <= 0 {
		return idx, 0
	}
	return idx, (x - xs[idx]) / span
}

// Cell is one sized variant of a library function.
type Cell struct {
	Name     string // e.g. "NAND2_X4"
	Kind     Kind
	SizeIdx  int     // 0-based index within the group, ascending drive
	Drive    float64 // relative drive strength (1, 2, 4, ...)
	Area     float64 // um^2
	InputCap float64 // fF per input pin
	Delay    Table2D // propagation delay, ps
	OutSlew  Table2D // output transition, ps
}

// validate checks the cell's own numbers: drive, input cap and area
// finite and non-negative, its tables well-formed.
func (c *Cell) validate() error {
	for _, q := range []struct {
		name string
		v    float64
	}{{"drive", c.Drive}, {"input capacitance", c.InputCap}, {"area", c.Area}} {
		if err := CheckQuantity(q.name, q.v); err != nil {
			return err
		}
	}
	if err := c.Delay.Validate(); err != nil {
		return fmt.Errorf("delay table: %v", err)
	}
	if err := c.OutSlew.Validate(); err != nil {
		return fmt.Errorf("slew table: %v", err)
	}
	return nil
}

// Group holds all drive strengths of one cell kind, ascending by drive.
type Group struct {
	Kind  Kind
	Cells []*Cell
}

// Library is a set of cell groups plus global electrical context.
type Library struct {
	Name string
	// PrimaryInputSlew is the transition assumed at primary inputs, ps.
	PrimaryInputSlew float64
	// PrimaryInputRes is the driver resistance modeled behind every
	// primary input, kOhm: the arrival time at a PI is
	// PrimaryInputRes * (capacitive load on the PI net). Without it PIs
	// would be ideal sources and upsizing first-level gates would be
	// free, an unphysical loophole a sizing optimizer will exploit.
	PrimaryInputRes float64
	// PrimaryOutputLoad is the capacitive load on primary outputs, fF.
	PrimaryOutputLoad float64
	// PrimaryInputCap is the pin capacitance modeled for a primary input
	// driver (used only for reporting; PIs are ideal sources).
	PrimaryInputCap float64

	groups [NumKinds]*Group
}

// Group returns the cell group for the kind, or nil if the library does not
// stock it.
func (l *Library) Group(k Kind) *Group {
	if k >= NumKinds {
		return nil
	}
	return l.groups[k]
}

// Cell returns the size-idx variant of the kind. It panics on an unstocked
// kind or an out-of-range size, which always indicates a programming error
// in the mapper or optimizer.
func (l *Library) Cell(k Kind, sizeIdx int) *Cell {
	g := l.Group(k)
	if g == nil {
		panic("cells: library " + l.Name + " does not stock " + k.String())
	}
	if sizeIdx < 0 || sizeIdx >= len(g.Cells) {
		panic(fmt.Sprintf("cells: %s size index %d out of range [0,%d)", k, sizeIdx, len(g.Cells)))
	}
	return g.Cells[sizeIdx]
}

// NumSizes returns how many drive strengths the library stocks for a kind.
func (l *Library) NumSizes(k Kind) int {
	g := l.Group(k)
	if g == nil {
		return 0
	}
	return len(g.Cells)
}

// AddGroup installs a group into the library, replacing any previous group
// of the same kind.
func (l *Library) AddGroup(g *Group) {
	l.groups[g.Kind] = g
}

// Kinds returns the stocked kinds in ascending order.
func (l *Library) Kinds() []Kind {
	var ks []Kind
	for k := Kind(0); k < NumKinds; k++ {
		if l.groups[k] != nil {
			ks = append(ks, k)
		}
	}
	return ks
}

// defaultDrives are the eight drive strengths stocked per kind, matching
// the paper's "6-8 sizes per gate type".
var defaultDrives = []float64{1, 2, 3, 4, 6, 8, 12, 16}

// electrical parameters of the synthetic 90nm-class process.
const (
	// unit driver resistance of an X1 inverter, kOhm; delay(ps) = R(kOhm)*C(fF).
	unitRes = 2.4
	// input pin capacitance of an X1 inverter, fF.
	unitCap = 1.8
	// intrinsic (unloaded) delay of an X1 inverter, ps.
	unitIntrinsic = 6.0
	// fraction of input slew that leaks into delay.
	slewToDelay = 0.12
	// output slew = slewGain * R * C + intrinsic slew floor.
	slewGain  = 2.0
	slewFloor = 6.0
	// base area of an X1 inverter, um^2.
	unitArea = 1.12
)

// kindParams scales the inverter prototype to each kind: logical effort g
// (input cap multiplier), parasitic p (intrinsic delay multiplier) and area
// multiplier, loosely following Sutherland/Sproull logical-effort values.
type kindParams struct {
	effort   float64
	parasite float64
	area     float64
}

var paramsByKind = [NumKinds]kindParams{
	INV:   {1.00, 1.0, 1.0},
	BUF:   {1.10, 1.8, 1.6},
	NAND2: {1.33, 2.0, 1.6},
	NAND3: {1.67, 3.0, 2.2},
	NAND4: {2.00, 4.0, 2.8},
	NOR2:  {1.67, 2.2, 1.7},
	NOR3:  {2.33, 3.4, 2.4},
	NOR4:  {3.00, 4.6, 3.1},
	AND2:  {1.45, 3.0, 2.0},
	AND3:  {1.80, 4.0, 2.6},
	AND4:  {2.15, 5.0, 3.2},
	OR2:   {1.80, 3.2, 2.1},
	OR3:   {2.45, 4.4, 2.8},
	OR4:   {3.10, 5.6, 3.5},
	XOR2:  {2.20, 4.5, 3.0},
	XNOR2: {2.20, 4.6, 3.1},
}

// Default90nm builds the built-in library: every kind in 8 drive
// strengths, 5x6 NLDM tables generated from the RC prototype above.
// Each call returns a fresh library that the caller owns and may modify;
// the designs repro.FromCircuit builds share one instance of their own,
// which a caller's copy never reaches.
func Default90nm() *Library {
	lib := &Library{
		Name:              "repro90",
		PrimaryInputSlew:  20,
		PrimaryInputRes:   0.6,
		PrimaryOutputLoad: 24.0,
		PrimaryInputCap:   1.8,
	}
	slewAxis := []float64{5, 20, 50, 120, 250}
	for k := Kind(0); k < NumKinds; k++ {
		p := paramsByKind[k]
		g := &Group{Kind: k}
		for si, drive := range defaultDrives {
			inCap := unitCap * p.effort * drive
			res := unitRes / drive
			intrinsic := unitIntrinsic * p.parasite
			// Load axis spans a sensible fanout range for this drive.
			loadAxis := make([]float64, 6)
			for j := range loadAxis {
				loadAxis[j] = inCap * float64(1+j*3)
			}
			delay := Table2D{Slews: slewAxis, Loads: loadAxis}
			slew := Table2D{Slews: slewAxis, Loads: loadAxis}
			for _, s := range slewAxis {
				dRow := make([]float64, len(loadAxis))
				sRow := make([]float64, len(loadAxis))
				for j, ld := range loadAxis {
					dRow[j] = intrinsic + res*ld + slewToDelay*s
					sRow[j] = slewFloor + slewGain*res*ld + 0.05*s
				}
				delay.Values = append(delay.Values, dRow)
				slew.Values = append(slew.Values, sRow)
			}
			g.Cells = append(g.Cells, &Cell{
				Name:     fmt.Sprintf("%s_X%g", k, drive),
				Kind:     k,
				SizeIdx:  si,
				Drive:    drive,
				Area:     unitArea * p.area * drive,
				InputCap: inCap,
				Delay:    delay,
				OutSlew:  slew,
			})
		}
		lib.AddGroup(g)
	}
	return lib
}

// Validate checks library invariants: the primary-I/O context and every
// cell's drive, input cap, area and tables finite and non-negative (see
// Table2D.Validate), every group non-empty, drives strictly ascending,
// delay strictly decreasing with drive at fixed slew/load, input cap and
// area strictly increasing with drive.
func (l *Library) Validate() error {
	for _, q := range []struct {
		name string
		v    float64
	}{
		{"primary input slew", l.PrimaryInputSlew},
		{"primary input resistance", l.PrimaryInputRes},
		{"primary output load", l.PrimaryOutputLoad},
		{"primary input capacitance", l.PrimaryInputCap},
	} {
		if err := CheckQuantity(q.name, q.v); err != nil {
			return fmt.Errorf("cells: %v", err)
		}
	}
	for k := Kind(0); k < NumKinds; k++ {
		g := l.groups[k]
		if g == nil {
			continue
		}
		if len(g.Cells) == 0 {
			return fmt.Errorf("cells: group %s empty", k)
		}
		for _, c := range g.Cells {
			if err := c.validate(); err != nil {
				return fmt.Errorf("cells: %s: %v", c.Name, err)
			}
		}
		for i := 1; i < len(g.Cells); i++ {
			a, b := g.Cells[i-1], g.Cells[i]
			if b.Drive <= a.Drive {
				return fmt.Errorf("cells: %s drives not ascending at %d", k, i)
			}
			if b.InputCap <= a.InputCap {
				return fmt.Errorf("cells: %s input cap not ascending at %d", k, i)
			}
			if b.Area <= a.Area {
				return fmt.Errorf("cells: %s area not ascending at %d", k, i)
			}
			// At equal absolute load, a stronger cell must be faster.
			load, slew := 10.0, 30.0
			if b.Delay.Lookup(slew, load) >= a.Delay.Lookup(slew, load) {
				return fmt.Errorf("cells: %s X%g not faster than X%g at load %g", k, b.Drive, a.Drive, load)
			}
		}
	}
	return nil
}
