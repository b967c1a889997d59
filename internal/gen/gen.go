// Package gen generates functional benchmark circuits.
//
// The paper evaluates on ISCAS-85 netlists plus proprietary ALU circuits,
// synthesized with a commercial tool. Neither the industrial library nor
// the exact synthesized netlists are available, so this package builds the
// same circuit *families* from first principles (see DESIGN.md,
// substitutions): array multipliers (c6288), single-error-correction XOR
// networks (c499/c1355/c1908), priority/interrupt logic (c432), parametric
// ALUs (alu1-3, c880, c3540, c5315), and adder/comparator datapaths
// (c2670, c7552). ISCASLike returns a circuit tuned to land near the
// paper's reported gate count for each name.
//
// Every generator produces plain circuit.Fn gates with bounded fanin;
// technology mapping to library cells is done by package synth.
package gen

import (
	"fmt"

	"repro/internal/circuit"
)

// Bus is an ordered list of nets (LSB first).
type Bus []circuit.GateID

// builder wraps a circuit with fluent helpers; all errors in generators
// indicate programming bugs, so helpers panic via the Must* methods.
type builder struct {
	c   *circuit.Circuit
	seq int
}

func newBuilder(name string) *builder {
	return &builder{c: circuit.New(name)}
}

func (b *builder) fresh(prefix string) string {
	b.seq++
	return fmt.Sprintf("%s_%d", prefix, b.seq)
}

// inputBus declares n primary inputs named prefix0..prefix{n-1}.
func (b *builder) inputBus(prefix string, n int) Bus {
	bus := make(Bus, n)
	for i := range bus {
		bus[i] = b.c.MustAddGate(fmt.Sprintf("%s%d", prefix, i), circuit.Input)
	}
	return bus
}

func (b *builder) input(name string) circuit.GateID {
	return b.c.MustAddGate(name, circuit.Input)
}

// gate adds a gate of fn over the given fanins. Fanin counts above 4 are
// decomposed into balanced trees so the mapper never sees wide gates. For
// the inverting and parity functions the tree decomposition preserves the
// function (NAND(a,b,c,d,..) -> NAND over AND subtrees, XOR trees are
// associative).
func (b *builder) gate(fn circuit.Fn, ins ...circuit.GateID) circuit.GateID {
	const maxArity = 4
	if len(ins) == 0 {
		panic("gen: gate with no fanins")
	}
	if len(ins) == 1 && (fn == circuit.And || fn == circuit.Or || fn == circuit.Xor) {
		return b.buf(ins[0])
	}
	if len(ins) <= maxArity {
		id := b.c.MustAddGate(b.fresh("n"), fn)
		for _, s := range ins {
			b.c.MustConnect(s, id)
		}
		return id
	}
	// Decompose: inner tree of the monotone core, outer gate applies the
	// final (possibly inverting) function.
	var inner circuit.Fn
	switch fn {
	case circuit.And, circuit.Nand:
		inner = circuit.And
	case circuit.Or, circuit.Nor:
		inner = circuit.Or
	case circuit.Xor, circuit.Xnor:
		inner = circuit.Xor
	default:
		panic("gen: cannot decompose " + fn.String())
	}
	// Reduce groups of maxArity until few enough remain.
	level := append([]circuit.GateID(nil), ins...)
	for len(level) > maxArity {
		var next []circuit.GateID
		for i := 0; i < len(level); i += maxArity {
			end := i + maxArity
			if end > len(level) {
				end = len(level)
			}
			if end-i == 1 {
				next = append(next, level[i])
				continue
			}
			next = append(next, b.gate(inner, level[i:end]...))
		}
		level = next
	}
	return b.gate(fn, level...)
}

func (b *builder) and(ins ...circuit.GateID) circuit.GateID  { return b.gate(circuit.And, ins...) }
func (b *builder) or(ins ...circuit.GateID) circuit.GateID   { return b.gate(circuit.Or, ins...) }
func (b *builder) xor(ins ...circuit.GateID) circuit.GateID  { return b.gate(circuit.Xor, ins...) }
func (b *builder) nand(ins ...circuit.GateID) circuit.GateID { return b.gate(circuit.Nand, ins...) }
func (b *builder) nor(ins ...circuit.GateID) circuit.GateID  { return b.gate(circuit.Nor, ins...) }
func (b *builder) xnor(ins ...circuit.GateID) circuit.GateID { return b.gate(circuit.Xnor, ins...) }

func (b *builder) not(in circuit.GateID) circuit.GateID {
	id := b.c.MustAddGate(b.fresh("inv"), circuit.Not)
	b.c.MustConnect(in, id)
	return id
}

func (b *builder) buf(in circuit.GateID) circuit.GateID {
	id := b.c.MustAddGate(b.fresh("buf"), circuit.Buf)
	b.c.MustConnect(in, id)
	return id
}

// output marks a net as primary output, inserting a buffer if the net is a
// primary input (ISCAS outputs must be gate-driven in our model to carry a
// cell for sizing).
func (b *builder) output(id circuit.GateID) {
	if b.c.Gate(id).Fn == circuit.Input {
		id = b.buf(id)
	}
	b.c.MustMarkOutput(id)
}

func (b *builder) outputBus(bus Bus) {
	for _, id := range bus {
		b.output(id)
	}
}

// finish validates and returns the circuit.
func (b *builder) finish() *circuit.Circuit {
	if err := b.c.Validate(); err != nil {
		panic(fmt.Sprintf("gen: generated circuit %q invalid: %v", b.c.Name, err))
	}
	return b.c
}

// fullAdder returns (sum, carry) of a+b+cin using the standard 5-gate
// decomposition.
func (b *builder) fullAdder(a, bb, cin circuit.GateID) (sum, cout circuit.GateID) {
	x1 := b.xor(a, bb)
	sum = b.xor(x1, cin)
	a1 := b.and(a, bb)
	a2 := b.and(x1, cin)
	cout = b.or(a1, a2)
	return sum, cout
}

// halfAdder returns (sum, carry) of a+b.
func (b *builder) halfAdder(a, bb circuit.GateID) (sum, cout circuit.GateID) {
	return b.xor(a, bb), b.and(a, bb)
}

// norXnor builds XNOR(a,b) from four 2-input NORs (the c6288 idiom) and
// also returns the first-stage NOR(a,b) node for reuse by carry logic.
func (b *builder) norXnor(a, bb circuit.GateID) (xnor, norAB circuit.GateID) {
	n1 := b.nor(a, bb)
	n2 := b.nor(a, n1)
	n3 := b.nor(bb, n1)
	return b.nor(n2, n3), n1
}

// norFullAdder builds a full adder from ten 2-input NORs plus two
// inverters, mirroring the NOR-only structure of the real ISCAS c6288:
//
//	xnab = XNOR(a,b)                             (4 NORs, n1 reused)
//	m1   = NOR(xnab, cin) == (a^b) & !cin
//	m2   = NOR(xnab, m1)  == (a^b) & cin
//	m3   = NOR(cin,  m1)  == !(a^b) & !cin
//	sum  = NOR(m2, m3)    == a ^ b ^ cin
//	xab  = NOT(xnab)      == a ^ b
//	ab   = NOR(n1, xab)   == (a|b) & !(a^b) == a & b
//	cout = NOT(NOR(ab, m2))
func (b *builder) norFullAdder(a, bb, cin circuit.GateID) (sum, cout circuit.GateID) {
	xnab, n1 := b.norXnor(a, bb)
	m1 := b.nor(xnab, cin)
	m2 := b.nor(xnab, m1)
	m3 := b.nor(cin, m1)
	sum = b.nor(m2, m3)
	xab := b.not(xnab)
	ab := b.nor(n1, xab)
	cout = b.not(b.nor(ab, m2))
	return sum, cout
}

// norHalfAdder builds a half adder from five NORs plus one inverter:
// sum = NOT(XNOR(a,b)), carry = NOR(n1, sum) = (a|b) & !(a^b) = a & b.
func (b *builder) norHalfAdder(a, bb circuit.GateID) (sum, cout circuit.GateID) {
	xnab, n1 := b.norXnor(a, bb)
	sum = b.not(xnab)
	cout = b.nor(n1, sum)
	return sum, cout
}

// Compose builds the disjoint union of blocks: every block keeps its own
// primary inputs (renamed with a block prefix) and all outputs are
// concatenated. This is how the larger ISCASLike circuits combine
// datapath, control and checking blocks into one netlist.
func Compose(name string, blocks ...*circuit.Circuit) *circuit.Circuit {
	out := circuit.New(name)
	total := 0
	for _, blk := range blocks {
		total += blk.NumGates()
	}
	out.Grow(total)
	for bi, blk := range blocks {
		remap := make([]circuit.GateID, blk.NumGates())
		for _, id := range blk.MustTopoOrder() {
			g := blk.Gate(id)
			nid := out.MustAddGate(fmt.Sprintf("b%d_%s", bi, g.Name), g.Fn)
			remap[id] = nid
			for _, s := range g.Fanin {
				out.MustConnect(remap[s], nid)
			}
		}
		for _, o := range blk.Outputs {
			out.MustMarkOutput(remap[o])
		}
	}
	if err := out.Validate(); err != nil {
		panic(fmt.Sprintf("gen: Compose(%q): %v", name, err))
	}
	return out
}
