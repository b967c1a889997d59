// Package liberty reads and writes cell libraries in a practical subset
// of the Liberty (.lib) format — the lingua franca for standard-cell
// timing data. The built-in library can be exported for inspection by
// other tools, and custom libraries (e.g. characterized from a different
// process) can be loaded back and used by every engine in this module.
//
// Supported subset: library-level default attributes, cells with area,
// input pins with capacitance, one output pin with a function string and
// timing() groups holding cell_rise/cell_fall lookup tables over
// (input_net_transition, total_output_net_capacitance), and rise/fall
// transition tables. Rise and fall are written identically (this module
// models one delay per cell) and averaged when read; a cell needs at
// least one delay and one transition table.
package liberty

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/cells"
	"repro/internal/ingest"
)

// Write emits the library as Liberty text.
func Write(w io.Writer, lib *cells.Library) error {
	b := &strings.Builder{}
	fmt.Fprintf(b, "library (%s) {\n", lib.Name)
	fmt.Fprintf(b, "  delay_model : table_lookup;\n")
	fmt.Fprintf(b, "  time_unit : \"1ps\";\n")
	fmt.Fprintf(b, "  capacitive_load_unit (1, ff);\n")
	fmt.Fprintf(b, "  default_input_transition : %g;\n", lib.PrimaryInputSlew)
	fmt.Fprintf(b, "  default_output_load : %g;\n", lib.PrimaryOutputLoad)
	fmt.Fprintf(b, "  default_input_drive_resistance : %g;\n", lib.PrimaryInputRes)

	for _, kind := range lib.Kinds() {
		g := lib.Group(kind)
		for _, c := range g.Cells {
			writeCell(b, c)
		}
	}
	fmt.Fprintf(b, "}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func writeCell(b *strings.Builder, c *cells.Cell) {
	fmt.Fprintf(b, "  cell (%s) {\n", c.Name)
	fmt.Fprintf(b, "    area : %g;\n", c.Area)
	fmt.Fprintf(b, "    drive_strength : %g;\n", c.Drive)
	for i := 0; i < c.Kind.Inputs(); i++ {
		fmt.Fprintf(b, "    pin (%c) {\n", 'A'+i)
		fmt.Fprintf(b, "      direction : input;\n")
		fmt.Fprintf(b, "      capacitance : %g;\n", c.InputCap)
		fmt.Fprintf(b, "    }\n")
	}
	fmt.Fprintf(b, "    pin (Y) {\n")
	fmt.Fprintf(b, "      direction : output;\n")
	fmt.Fprintf(b, "      function : \"%s\";\n", functionOf(c.Kind))
	fmt.Fprintf(b, "      timing () {\n")
	writeTable(b, "cell_rise", &c.Delay)
	writeTable(b, "cell_fall", &c.Delay)
	writeTable(b, "rise_transition", &c.OutSlew)
	writeTable(b, "fall_transition", &c.OutSlew)
	fmt.Fprintf(b, "      }\n")
	fmt.Fprintf(b, "    }\n")
	fmt.Fprintf(b, "  }\n")
}

func writeTable(b *strings.Builder, name string, t *cells.Table2D) {
	fmt.Fprintf(b, "        %s (delay_template) {\n", name)
	fmt.Fprintf(b, "          index_1 (\"%s\");\n", joinFloats(t.Slews))
	fmt.Fprintf(b, "          index_2 (\"%s\");\n", joinFloats(t.Loads))
	fmt.Fprintf(b, "          values ( \\\n")
	for i, row := range t.Values {
		sep := ", \\"
		if i == len(t.Values)-1 {
			sep = " \\"
		}
		fmt.Fprintf(b, "            \"%s\"%s\n", joinFloats(row), sep)
	}
	fmt.Fprintf(b, "          );\n")
	fmt.Fprintf(b, "        }\n")
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%g", x)
	}
	return strings.Join(parts, ", ")
}

// functionOf renders a Liberty boolean function for the kind, using pin
// names A, B, C, D.
func functionOf(k cells.Kind) string {
	pins := make([]string, k.Inputs())
	for i := range pins {
		pins[i] = string(rune('A' + i))
	}
	switch k {
	case cells.INV:
		return "!A"
	case cells.BUF:
		return "A"
	case cells.AND2, cells.AND3, cells.AND4:
		return strings.Join(pins, "*")
	case cells.NAND2, cells.NAND3, cells.NAND4:
		return "!(" + strings.Join(pins, "*") + ")"
	case cells.OR2, cells.OR3, cells.OR4:
		return strings.Join(pins, "+")
	case cells.NOR2, cells.NOR3, cells.NOR4:
		return "!(" + strings.Join(pins, "+") + ")"
	case cells.XOR2:
		return "A^B"
	case cells.XNOR2:
		return "!(A^B)"
	}
	return "?"
}

// KindOfCellName resolves a cell name of the form KIND_Xdrive back to its
// kind (e.g. "NAND2_X4" -> NAND2).
func KindOfCellName(name string) (cells.Kind, bool) {
	base, _, found := strings.Cut(name, "_X")
	if !found {
		return 0, false
	}
	return cells.ParseKind(base)
}

// Parse reads a Liberty library written by Write (or a compatible
// subset) under the default resource budgets. Cells whose names do not
// follow the KIND_Xdrive convention are rejected, since the mapper needs
// the kind.
func Parse(r io.Reader) (*cells.Library, error) {
	return ParseOpts(r, ingest.Default())
}

// ParseOpts reads a Liberty library in a single streaming pass under the
// given budget envelope: at most one cell group is materialized at a
// time, the context in lim is polled at token granularity, and malformed
// constructs are recovered from with a bounded diagnostic list (surfaced
// as an *ingest.Error) instead of first-error bailout. Context
// cancellation propagates as the context's own error.
func ParseOpts(r io.Reader, lim ingest.Limits) (*cells.Library, error) {
	lim = lim.WithDefaults()
	if err := lim.Ctx.Err(); err != nil {
		return nil, err
	}
	p := &parser{
		lx:   newLexer(ingest.NewReader(r, lim), ingest.NewMeter(lim), lim),
		lim:  lim,
		diag: ingest.NewCollector("liberty", lim),
	}
	return p.library()
}

// parser is the streaming statement-at-a-time Liberty reader. depth
// tracks how many { } groups are open so error recovery can resynchronize
// to a statement boundary at library level, and stored bounds how many
// attribute values one top-level statement may materialize.
type parser struct {
	lx     *ingest.Lexer
	lim    ingest.Limits
	diag   *ingest.Collector
	depth  int
	stored int
}

// fail files a lexer/parse error as a diagnostic. The returned error is
// non-nil when the parse must stop now: context cancellation (propagated
// unwrapped), a budget trip, or an exhausted error budget.
func (p *parser) fail(err error) error {
	if ingest.IsCtxErr(err) {
		return err
	}
	line, col := p.lx.Pos()
	line, col, msg := positioned(err, line, col)
	check := ingest.CheckSyntax
	if ingest.IsBudgetSentinel(err) {
		check = ingest.CheckBudget
	}
	ok := p.diag.Add(ingest.Diagnostic{
		Check: check, Severity: ingest.SeverityError,
		Line: line, Col: col, Msg: msg.Error(),
	})
	if check == ingest.CheckBudget || !ok {
		return p.diag.Err()
	}
	p.lx.ClearErr()
	return nil
}

// positioned splits a positioned error into its own position and
// message; an error without one is placed at (line, col).
func positioned(err error, line, col int) (int, int, error) {
	var pe *posError
	if errors.As(err, &pe) {
		return pe.Line, pe.Col, pe.Err
	}
	return line, col, err
}

// semantic files a structural diagnostic; false means the error budget
// is exhausted.
func (p *parser) semantic(line, col int, msg string) bool {
	return p.diag.Add(ingest.Diagnostic{
		Check: ingest.CheckSemantic, Severity: ingest.SeverityError,
		Line: line, Col: col, Msg: msg,
	})
}

// store counts materialized attribute values and subgroups against the
// net/pin budget, bounding how much of one statement's subtree can be
// held in memory at a time.
func (p *parser) store(n int) error {
	p.stored += n
	if p.stored > p.lim.MaxNets {
		return ingest.Budgetf("statement materializes more than %d values", p.lim.MaxNets)
	}
	return nil
}

type stmtKind int

const (
	stmtAttr  stmtKind = iota // name : v ;   or   name (v, v) ;
	stmtGroup                 // name (arg) {   — body not yet consumed
)

type stmt struct {
	kind      stmtKind
	name      string
	line, col int
	values    []string
}

func (s *stmt) arg() string {
	if len(s.values) == 0 {
		return ""
	}
	return s.values[0]
}

// statement reads one statement whose name identifier has already been
// consumed. For groups only the "(arg) {" opener is consumed; the caller
// decides whether to materialize or skip the body.
func (p *parser) statement(name token) (*stmt, error) {
	st := &stmt{name: name.Text, line: name.Line, col: name.Col}
	tok, err := p.lx.Next()
	if err != nil {
		return nil, err
	}
	if tok.Kind != tokPunct {
		return nil, &posError{Line: tok.Line, Col: tok.Col, Err: fmt.Errorf("unexpected %s after %q", tok, name.Text)}
	}
	switch tok.Text {
	case ":":
		for {
			tok, err := p.lx.Next()
			if err != nil {
				return nil, err
			}
			switch {
			case tok.Kind == tokIdent || tok.Kind == tokString:
				if err := p.store(1); err != nil {
					return nil, err
				}
				st.values = append(st.values, tok.Text)
			case tok.Kind == tokPunct && tok.Text == ";":
				return st, nil
			default:
				return nil, &posError{Line: tok.Line, Col: tok.Col, Err: fmt.Errorf("unexpected %s in attribute %q", tok, st.name)}
			}
		}
	case "(":
	args:
		for {
			tok, err := p.lx.Next()
			if err != nil {
				return nil, err
			}
			switch {
			case tok.Kind == tokIdent || tok.Kind == tokString:
				if err := p.store(1); err != nil {
					return nil, err
				}
				st.values = append(st.values, tok.Text)
			case tok.Kind == tokPunct && tok.Text == ")":
				break args
			default:
				return nil, &posError{Line: tok.Line, Col: tok.Col, Err: fmt.Errorf("unexpected %s in %q(...)", tok, st.name)}
			}
		}
		tok, err = p.lx.Next()
		if err != nil {
			return nil, err
		}
		switch {
		case tok.Kind == tokPunct && tok.Text == ";":
			return st, nil
		case tok.Kind == tokPunct && tok.Text == "{":
			if p.depth >= p.lim.MaxDepth {
				return nil, &posError{Line: tok.Line, Col: tok.Col, Err: ingest.Budgetf("group nesting exceeds the depth budget of %d", p.lim.MaxDepth)}
			}
			p.depth++
			st.kind = stmtGroup
			return st, nil
		default:
			return nil, &posError{Line: tok.Line, Col: tok.Col, Err: fmt.Errorf("expected ; or { after %q(...), got %s", st.name, tok)}
		}
	default:
		return nil, &posError{Line: tok.Line, Col: tok.Col, Err: fmt.Errorf("unexpected %q after %q", tok.Text, name.Text)}
	}
}

// groupBody materializes the body of an opened group into a group tree,
// one statement at a time, recursing at most MaxDepth deep.
func (p *parser) groupBody(st *stmt) (*group, error) {
	g := &group{name: st.name, arg: st.arg(), line: st.line, col: st.col, attrs: map[string][]string{}}
	for {
		tok, err := p.lx.Next()
		if err != nil {
			return nil, err
		}
		switch {
		case tok.Kind == tokEOF:
			return nil, &posError{Line: tok.Line, Col: tok.Col, Err: fmt.Errorf("unexpected end of file in group %q", g.name)}
		case tok.Kind == tokPunct && tok.Text == "}":
			p.depth--
			return g, nil
		case tok.Kind == tokIdent:
			sub, err := p.statement(tok)
			if err != nil {
				return nil, err
			}
			if sub.kind == stmtGroup {
				child, err := p.groupBody(sub)
				if err != nil {
					return nil, err
				}
				if err := p.store(1); err != nil {
					return nil, err
				}
				g.subs = append(g.subs, child)
			} else {
				g.attrs[sub.name] = sub.values
			}
		default:
			return nil, &posError{Line: tok.Line, Col: tok.Col, Err: fmt.Errorf("unexpected %q in group %q", tok.Text, g.name)}
		}
	}
}

// skipGroup discards the body of an opened group without materializing
// it: unknown groups (operating_conditions, lu_table_template, ...) cost
// tokens, never memory. Junk inside a skipped group is tolerated.
func (p *parser) skipGroup() error {
	target := p.depth - 1
	for {
		tok, err := p.lx.Next()
		if err != nil {
			if ingest.IsCtxErr(err) || ingest.IsBudgetSentinel(err) {
				return err
			}
			p.lx.ClearErr()
			continue
		}
		switch {
		case tok.Kind == tokEOF:
			return &posError{Line: tok.Line, Col: tok.Col, Err: errors.New("unexpected end of file in skipped group")}
		case tok.Kind == tokPunct && tok.Text == "{":
			p.depth++
		case tok.Kind == tokPunct && tok.Text == "}":
			p.depth--
			if p.depth <= target {
				return nil
			}
		}
	}
}

// resync recovers after a filed diagnostic: tokens are discarded until
// the parse is back at the target group depth on a statement boundary.
// The returned error is non-nil only when the parse must stop (ctx,
// budget, or exhausted error budget).
func (p *parser) resync(target int) error {
	for {
		tok, err := p.lx.Next()
		if err != nil {
			if f := p.fail(err); f != nil {
				return f
			}
			continue
		}
		switch {
		case tok.Kind == tokEOF:
			return nil
		case tok.Kind == tokPunct && tok.Text == ";":
			if p.depth <= target {
				return nil
			}
		case tok.Kind == tokPunct && tok.Text == "{":
			p.depth++
		case tok.Kind == tokPunct && tok.Text == "}":
			p.depth--
			if p.depth <= target {
				return nil
			}
		}
	}
}

// library drives the whole parse: header, then top-level statements one
// at a time. Cell groups are materialized, converted and dropped;
// everything else is skipped or distilled into the three library
// defaults, so peak memory is one cell subtree regardless of input size.
func (p *parser) library() (*cells.Library, error) {
	tok, err := p.lx.Next()
	if err != nil {
		if f := p.fail(err); f != nil {
			return nil, f
		}
		return nil, p.diag.Err()
	}
	if tok.Kind != tokIdent || tok.Text != "library" {
		p.semantic(tok.Line, tok.Col, fmt.Sprintf("top-level group is %q, want library", tok.Text))
		return nil, p.diag.Err()
	}
	head, err := p.statement(tok)
	if err != nil {
		if f := p.fail(err); f != nil {
			return nil, f
		}
		return nil, p.diag.Err()
	}
	if head.kind != stmtGroup {
		p.semantic(head.line, head.col, "library is an attribute, want a group")
		return nil, p.diag.Err()
	}
	lib := &cells.Library{Name: head.arg()}
	kinds := map[cells.Kind][]*cells.Cell{}
	ncells := 0
loop:
	for p.depth > 0 {
		tok, err := p.lx.Next()
		if err != nil {
			if f := p.fail(err); f != nil {
				return nil, f
			}
			if f := p.resync(1); f != nil {
				return nil, f
			}
			continue
		}
		switch {
		case tok.Kind == tokEOF:
			p.semantic(tok.Line, tok.Col, "unexpected end of file: library group not closed")
			break loop
		case tok.Kind == tokPunct && tok.Text == "}":
			p.depth--
		case tok.Kind == tokIdent:
			p.stored = 0
			st, err := p.statement(tok)
			if err != nil {
				if f := p.fail(err); f != nil {
					return nil, f
				}
				if f := p.resync(1); f != nil {
					return nil, f
				}
				continue
			}
			switch {
			case st.kind == stmtAttr:
				v := st.arg()
				if v == "" {
					break
				}
				switch st.name {
				case "default_input_transition":
					if f, err := parseFloat(v); err == nil {
						lib.PrimaryInputSlew = f
					}
				case "default_output_load":
					if f, err := parseFloat(v); err == nil {
						lib.PrimaryOutputLoad = f
					}
				case "default_input_drive_resistance":
					if f, err := parseFloat(v); err == nil {
						lib.PrimaryInputRes = f
					}
				}
			case st.name == "cell":
				ncells++
				if ncells > p.lim.MaxGates {
					return nil, p.fail(ingest.Budgetf("library holds more than %d cells", p.lim.MaxGates))
				}
				g, err := p.groupBody(st)
				if err != nil {
					if f := p.fail(err); f != nil {
						return nil, f
					}
					if f := p.resync(1); f != nil {
						return nil, f
					}
					continue
				}
				cell, err := parseCell(g)
				if err != nil {
					line, col, msg := positioned(err, g.line, g.col)
					if !p.semantic(line, col, msg.Error()) {
						return nil, p.diag.Err()
					}
					continue
				}
				kinds[cell.Kind] = append(kinds[cell.Kind], cell)
			default:
				if err := p.skipGroup(); err != nil {
					if f := p.fail(err); f != nil {
						return nil, f
					}
				}
			}
		default:
			if f := p.fail(&posError{Line: tok.Line, Col: tok.Col, Err: fmt.Errorf("unexpected %q", tok.Text)}); f != nil {
				return nil, f
			}
			if f := p.resync(1); f != nil {
				return nil, f
			}
		}
	}
	if err := p.diag.Err(); err != nil {
		return nil, err
	}
	if len(kinds) == 0 {
		p.semantic(0, 0, fmt.Sprintf("library %q has no cells", lib.Name))
		return nil, p.diag.Err()
	}
	for kind, cs := range kinds {
		sort.Slice(cs, func(i, j int) bool { return cs[i].Drive < cs[j].Drive })
		for i, c := range cs {
			c.SizeIdx = i
		}
		lib.AddGroup(&cells.Group{Kind: kind, Cells: cs})
	}
	if err := lib.Validate(); err != nil {
		p.semantic(0, 0, fmt.Sprintf("parsed library invalid: %v", err))
		return nil, p.diag.Err()
	}
	return lib, nil
}

func parseCell(g *group) (*cells.Cell, error) {
	kind, ok := KindOfCellName(g.arg)
	if !ok {
		return nil, fmt.Errorf("liberty: cell %q does not follow the KIND_Xdrive naming convention", g.arg)
	}
	c := &cells.Cell{Name: g.arg, Kind: kind}
	var err error
	if c.Area, _, err = quantity(g, c.Name, "area"); err != nil {
		return nil, err
	}
	if c.Drive, _, err = quantity(g, c.Name, "drive_strength"); err != nil {
		return nil, err
	}
	var haveDelay, haveSlew int
	for _, pin := range g.subs {
		if pin.name != "pin" {
			continue
		}
		dir, _ := pin.attrString("direction")
		switch dir {
		case "input":
			v, ok, err := quantity(pin, c.Name, "capacitance")
			if err != nil {
				return nil, err
			}
			if ok {
				c.InputCap = v
			}
		case "output":
			for _, tg := range pin.subs {
				if tg.name != "timing" {
					continue
				}
				for _, tab := range tg.subs {
					t, err := parseTable(tab)
					if err != nil {
						return nil, &posError{Line: tab.line, Col: tab.col,
							Err: fmt.Errorf("liberty: cell %s: %v", c.Name, err)}
					}
					switch tab.name {
					case "cell_rise", "cell_fall":
						err = averageTables(&c.Delay, t, haveDelay)
						haveDelay++
					case "rise_transition", "fall_transition":
						err = averageTables(&c.OutSlew, t, haveSlew)
						haveSlew++
					}
					if err != nil {
						return nil, &posError{Line: tab.line, Col: tab.col,
							Err: fmt.Errorf("liberty: cell %s: %s: %v", c.Name, tab.name, err)}
					}
				}
			}
		default:
			return nil, fmt.Errorf("liberty: cell %s: pin %s has no direction", c.Name, pin.arg)
		}
	}
	if haveDelay == 0 {
		return nil, fmt.Errorf("liberty: cell %s has no delay tables", c.Name)
	}
	if haveSlew == 0 {
		// Without an output slew the cell's fanout delays cannot be looked
		// up; a zero table would fail the first lookup during analysis.
		return nil, fmt.Errorf("liberty: cell %s has no transition tables", c.Name)
	}
	if c.Drive == 0 {
		// Fall back to the name suffix.
		if _, suffix, ok := strings.Cut(c.Name, "_X"); ok {
			fmt.Sscanf(suffix, "%g", &c.Drive)
		}
	}
	if c.Drive == 0 || c.InputCap == 0 || c.Area == 0 {
		return nil, fmt.Errorf("liberty: cell %s missing drive/capacitance/area", c.Name)
	}
	return c, nil
}

// averageTables merges rise/fall tables into one (this module models a
// single delay per cell): the n-th incoming table is averaged into acc
// with weight 1/(n+1). Only tables on the same index grid can be
// averaged point by point; any other pair is an error.
func averageTables(acc *cells.Table2D, t cells.Table2D, n int) error {
	if n == 0 {
		*acc = t
		return nil
	}
	if !slices.Equal(acc.Slews, t.Slews) || !slices.Equal(acc.Loads, t.Loads) {
		return fmt.Errorf("index_1/index_2 differ from the cell's earlier table of the same kind")
	}
	for i := range acc.Values {
		for j := range acc.Values[i] {
			acc.Values[i][j] = (acc.Values[i][j]*float64(n) + t.Values[i][j]) / float64(n+1)
		}
	}
	return nil
}

func parseTable(g *group) (cells.Table2D, error) {
	var t cells.Table2D
	idx1, ok := g.attrString("index_1")
	if !ok {
		return t, fmt.Errorf("table %s: missing index_1", g.name)
	}
	idx2, ok := g.attrString("index_2")
	if !ok {
		return t, fmt.Errorf("table %s: missing index_2", g.name)
	}
	var err error
	if t.Slews, err = parseFloats(idx1); err != nil {
		return t, err
	}
	if t.Loads, err = parseFloats(idx2); err != nil {
		return t, err
	}
	rows, ok := g.attrList("values")
	if !ok {
		return t, fmt.Errorf("table %s: missing values", g.name)
	}
	for _, row := range rows {
		vs, err := parseFloats(row)
		if err != nil {
			return t, err
		}
		t.Values = append(t.Values, vs)
	}
	if err := t.Validate(); err != nil {
		return t, fmt.Errorf("table %s: %v", g.name, err)
	}
	return t, nil
}

// quantity reads a physical-quantity attribute of g like attrFloat; a
// value that is present must be finite and non-negative, or the cell is
// rejected at g's position.
func quantity(g *group, cell, name string) (float64, bool, error) {
	v, ok := g.attrFloat(name)
	if !ok {
		return 0, false, nil
	}
	if err := cells.CheckQuantity(name, v); err != nil {
		return 0, false, &posError{Line: g.line, Col: g.col, Err: fmt.Errorf("liberty: cell %s: %v", cell, err)}
	}
	return v, true, nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(p, "%g", &v); err != nil {
			return nil, fmt.Errorf("bad number %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
