package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildSmall constructs:  a,b,c inputs; n1=NAND(a,b); n2=NOR(n1,c); out=n2
func buildSmall(t *testing.T) *Circuit {
	t.Helper()
	c := New("small")
	a := c.MustAddGate("a", Input)
	b := c.MustAddGate("b", Input)
	ci := c.MustAddGate("c", Input)
	n1 := c.MustAddGate("n1", Nand)
	n2 := c.MustAddGate("n2", Nor)
	c.MustConnect(a, n1)
	c.MustConnect(b, n1)
	c.MustConnect(n1, n2)
	c.MustConnect(ci, n2)
	c.MustMarkOutput(n2)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return c
}

func TestAddGateDuplicateName(t *testing.T) {
	c := New("t")
	c.MustAddGate("x", Input)
	if _, err := c.AddGate("x", And); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestAddGateAutoName(t *testing.T) {
	c := New("t")
	id, err := c.AddGate("", Input)
	if err != nil {
		t.Fatal(err)
	}
	if c.Gate(id).Name == "" {
		t.Fatal("auto name not assigned")
	}
}

// TestGrowReservesWithoutChanging grows a circuit that already has gates:
// names, outputs and the topological order survive, and the reserved
// gates are added without moving Gates again.
func TestGrowReservesWithoutChanging(t *testing.T) {
	c := buildSmall(t)
	rev := c.Revision()
	c.Grow(0)
	c.Grow(10)
	if c.Revision() != rev {
		t.Fatal("Grow counted as a mutation")
	}
	if cap(c.Gates)-len(c.Gates) < 10 {
		t.Fatalf("Grow(10) left room for %d gates", cap(c.Gates)-len(c.Gates))
	}
	if id, ok := c.Lookup("n1"); !ok || c.Gate(id).Fn != Nand {
		t.Fatal("Grow lost gate n1")
	}
	base := &c.Gates[0]
	for i := 0; i < 10; i++ {
		id := c.MustAddGate("", Buf)
		c.MustConnect(c.MustLookup("n2"), id)
	}
	if &c.Gates[0] != base {
		t.Fatal("Gates moved while adding reserved gates")
	}
	if !c.IsOutput(c.MustLookup("n2")) || c.IsOutput(c.MustLookup("n1")) {
		t.Fatal("Grow disturbed the output index")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConnectSelfLoop(t *testing.T) {
	c := New("t")
	a := c.MustAddGate("a", And)
	if err := c.Connect(a, a); err == nil {
		t.Fatal("expected self-loop error")
	}
}

func TestConnectArity(t *testing.T) {
	c := New("t")
	a := c.MustAddGate("a", Input)
	b := c.MustAddGate("b", Input)
	n := c.MustAddGate("n", Not)
	c.MustConnect(a, n)
	if err := c.Connect(b, n); err == nil {
		t.Fatal("NOT gate accepted 2 fanins")
	}
}

func TestMarkOutputTwice(t *testing.T) {
	c := buildSmall(t)
	id := c.MustLookup("n2")
	if err := c.MarkOutput(id); err == nil {
		t.Fatal("expected duplicate output error")
	}
}

// Validate checks that fanout lists mirror fanin lists as multisets and
// names the first broken edge in gate-ID order, the same one on every
// call. The cases corrupt Gates directly, past Connect's bookkeeping.
func TestValidateMirrorErrors(t *testing.T) {
	// parallel builds a, b inputs and n = AND(a, a, b): a drives n twice.
	parallel := func(*testing.T) *Circuit {
		c := New("par")
		a := c.MustAddGate("a", Input)
		b := c.MustAddGate("b", Input)
		n := c.MustAddGate("n", And)
		c.MustConnect(a, n)
		c.MustConnect(a, n)
		c.MustConnect(b, n)
		c.MustMarkOutput(n)
		return c
	}
	cases := []struct {
		name  string
		build func(*testing.T) *Circuit
		want  string // "" = valid
	}{
		{"fanout without fanin", func(t *testing.T) *Circuit {
			c := buildSmall(t)
			a := c.Gate(c.MustLookup("a"))
			a.Fanout = append(a.Fanout, c.MustLookup("n2"))
			return c
		}, `circuit "small": fanout edge "a" -> "n2" has no matching fanin`},
		{"two unmirrored fanins", func(t *testing.T) *Circuit {
			c := buildSmall(t)
			c.Gate(c.MustLookup("c")).Fanout = nil
			c.Gate(c.MustLookup("b")).Fanout = nil
			return c
		}, `circuit "small": fanin edge "b" -> "n1" not mirrored in fanout`},
		{"parallel edges balance", parallel, ""},
		{"parallel edge missing from fanout", func(t *testing.T) *Circuit {
			c := parallel(t)
			a := c.Gate(c.MustLookup("a"))
			a.Fanout = a.Fanout[:1]
			return c
		}, `circuit "par": fanin edge "a" -> "n" not mirrored in fanout`},
		{"parallel edge extra in fanout", func(t *testing.T) *Circuit {
			c := parallel(t)
			a := c.Gate(c.MustLookup("a"))
			a.Fanout = append(a.Fanout, c.MustLookup("n"))
			return c
		}, `circuit "par": fanout edge "a" -> "n" has no matching fanin`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			for call := 0; call < 20; call++ {
				got := ""
				if err := c.Validate(); err != nil {
					got = err.Error()
				}
				if got != tc.want {
					t.Fatalf("call %d: Validate() = %q, want %q", call, got, tc.want)
				}
			}
		})
	}
}

func TestLookup(t *testing.T) {
	c := buildSmall(t)
	if _, ok := c.Lookup("n1"); !ok {
		t.Fatal("n1 not found")
	}
	if _, ok := c.Lookup("zz"); ok {
		t.Fatal("phantom gate found")
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	c := buildSmall(t)
	topo := c.MustTopoOrder()
	pos := make(map[GateID]int)
	for i, id := range topo {
		pos[id] = i
	}
	for i := range c.Gates {
		for _, s := range c.Gates[i].Fanin {
			if pos[s] >= pos[GateID(i)] {
				t.Fatalf("fanin %d after gate %d in topo order", s, i)
			}
		}
	}
}

func TestCycleDetection(t *testing.T) {
	c := New("cyc")
	a := c.MustAddGate("a", And)
	b := c.MustAddGate("b", And)
	// Bypass arity rules legitimately: And allows n-ary fanin.
	c.MustConnect(a, b)
	c.MustConnect(b, a)
	if _, err := c.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := c.Validate(); err == nil {
		t.Fatal("Validate missed cycle")
	}
}

func TestLevels(t *testing.T) {
	c := buildSmall(t)
	lv, depth := c.Levels()
	if depth != 2 {
		t.Fatalf("depth = %d, want 2", depth)
	}
	if lv[c.MustLookup("a")] != 0 || lv[c.MustLookup("n1")] != 1 || lv[c.MustLookup("n2")] != 2 {
		t.Fatalf("levels wrong: %v", lv)
	}
}

func TestTransitiveFaninDepth(t *testing.T) {
	c := buildSmall(t)
	n2 := c.MustLookup("n2")
	tf1 := c.TransitiveFanin([]GateID{n2}, 1)
	if len(tf1) != 3 { // n2, n1, c
		t.Fatalf("TFI depth 1: got %d gates, want 3", len(tf1))
	}
	tfAll := c.TransitiveFanin([]GateID{n2}, -1)
	if len(tfAll) != 5 {
		t.Fatalf("TFI unbounded: got %d gates, want 5", len(tfAll))
	}
}

func TestTransitiveFanout(t *testing.T) {
	c := buildSmall(t)
	a := c.MustLookup("a")
	tf := c.TransitiveFanout([]GateID{a}, -1)
	if len(tf) != 3 { // a, n1, n2
		t.Fatalf("TFO: got %d gates, want 3", len(tf))
	}
}

func TestFnEvalTruthTables(t *testing.T) {
	cases := []struct {
		fn   Fn
		in   []bool
		want bool
	}{
		{And, []bool{true, true}, true},
		{And, []bool{true, false}, false},
		{Nand, []bool{true, true}, false},
		{Nand, []bool{false, true}, true},
		{Or, []bool{false, false}, false},
		{Or, []bool{false, true}, true},
		{Nor, []bool{false, false}, true},
		{Nor, []bool{true, false}, false},
		{Xor, []bool{true, true}, false},
		{Xor, []bool{true, false}, true},
		{Xor, []bool{true, true, true}, true},
		{Xnor, []bool{true, false}, false},
		{Xnor, []bool{true, true}, true},
		{Not, []bool{true}, false},
		{Buf, []bool{true}, true},
		{Const0, nil, false},
		{Const1, nil, true},
	}
	for _, tc := range cases {
		if got := tc.fn.Eval(tc.in); got != tc.want {
			t.Errorf("%s%v = %v, want %v", tc.fn, tc.in, got, tc.want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	c := buildSmall(t)
	cp := c.Clone()
	if err := cp.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	cp.Gates[0].SizeIdx = 7
	cp.MustAddGate("extra", Input)
	if c.Gates[0].SizeIdx == 7 {
		t.Fatal("clone shares gate storage")
	}
	if _, ok := c.Lookup("extra"); ok {
		t.Fatal("clone shares name map")
	}
}

func TestSizeSnapshotRestore(t *testing.T) {
	c := buildSmall(t)
	c.Gates[3].SizeIdx = 5
	snap := c.SizeSnapshot()
	c.Gates[3].SizeIdx = 1
	c.RestoreSizes(snap)
	if c.Gates[3].SizeIdx != 5 {
		t.Fatal("RestoreSizes did not restore")
	}
}

func TestComputeStats(t *testing.T) {
	c := buildSmall(t)
	s := c.ComputeStats()
	if s.Gates != 2 || s.Inputs != 3 || s.Outputs != 1 || s.Depth != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.FnCounts[Nand] != 1 || s.FnCounts[Nor] != 1 {
		t.Fatalf("fn counts = %v", s.FnCounts)
	}
}

// randomDAG builds a random layered DAG for property tests.
func randomDAG(rng *rand.Rand, nGates int) *Circuit {
	c := New("rand")
	nIn := 3 + rng.Intn(5)
	for i := 0; i < nIn; i++ {
		c.MustAddGate("", Input)
	}
	fns := []Fn{And, Or, Nand, Nor, Xor, Not}
	for i := 0; i < nGates; i++ {
		fn := fns[rng.Intn(len(fns))]
		id := c.MustAddGate("", fn)
		nf := 1
		if fn != Not {
			nf = 1 + rng.Intn(3)
		}
		for j := 0; j < nf; j++ {
			// Only connect from earlier gates: guarantees acyclicity.
			src := GateID(rng.Intn(int(id)))
			c.MustConnect(src, id)
		}
	}
	// Mark all sinks as outputs.
	for i := range c.Gates {
		if len(c.Gates[i].Fanout) == 0 && c.Gates[i].Fn.IsLogic() {
			c.MustMarkOutput(GateID(i))
		}
	}
	return c
}

func TestRandomDAGsValidateAndOrder(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomDAG(rng, 5+int(size)%120)
		if err := c.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		topo := c.MustTopoOrder()
		if len(topo) != len(c.Gates) {
			return false
		}
		pos := make([]int, len(c.Gates))
		for i, id := range topo {
			pos[id] = i
		}
		for i := range c.Gates {
			for _, s := range c.Gates[i].Fanin {
				if pos[s] >= pos[GateID(i)] {
					return false
				}
			}
		}
		// Levels must be consistent: level(g) == 1 + max(level(fanin)).
		lv, _ := c.Levels()
		for i := range c.Gates {
			g := &c.Gates[i]
			if !g.Fn.IsLogic() {
				continue
			}
			best := int32(0)
			for _, s := range g.Fanin {
				if lv[s] > best {
					best = lv[s]
				}
			}
			if lv[i] != best+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConePropertyFaninSubsetOfAll(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomDAG(rng, 60)
		if len(c.Outputs) == 0 {
			return true
		}
		seed1 := c.Outputs[:1]
		d1 := c.TransitiveFanin(seed1, 1)
		d2 := c.TransitiveFanin(seed1, 2)
		all := c.TransitiveFanin(seed1, -1)
		in := func(list []GateID, id GateID) bool {
			for _, x := range list {
				if x == id {
					return true
				}
			}
			return false
		}
		// Monotone: d1 subset of d2 subset of all.
		for _, id := range d1 {
			if !in(d2, id) {
				return false
			}
		}
		for _, id := range d2 {
			if !in(all, id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRevisionBumpsOnMutation(t *testing.T) {
	c := New("t")
	r0 := c.Revision()
	c.MustAddGate("a", Input)
	if c.Revision() == r0 {
		t.Fatal("revision not bumped by AddGate")
	}
	r1 := c.Revision()
	b := c.MustAddGate("b", Buf)
	c.MustConnect(c.MustLookup("a"), b)
	if c.Revision() == r1 {
		t.Fatal("revision not bumped by Connect")
	}
}

// TestLevelQueuePopLevel drains the same seeded push sequence with Pop
// and with PopLevel: the concatenated levels must be exactly the Pop
// sequence, each batch one level, and duplicate pushes suppressed.
func TestLevelQueuePopLevel(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(9))
	level := make([]int32, n)
	for i := range level {
		level[i] = int32(rng.Intn(12))
	}
	pushes := make([]GateID, 600) // ~3 pushes per gate: duplicates guaranteed
	for i := range pushes {
		pushes[i] = GateID(rng.Intn(n))
	}
	a, b := NewLevelQueue(n), NewLevelQueue(n)
	for _, id := range pushes {
		a.Push(id, level[id])
		b.Push(id, level[id])
	}
	var want []GateID
	for {
		id, ok := a.Pop()
		if !ok {
			break
		}
		want = append(want, id)
	}
	var got []GateID
	for {
		batch := b.PopLevel(nil)
		if len(batch) == 0 {
			break
		}
		for _, id := range batch {
			if level[id] != level[batch[0]] {
				t.Fatalf("PopLevel mixed levels %d and %d", level[batch[0]], level[id])
			}
		}
		if len(got) > 0 && level[batch[0]] <= level[got[len(got)-1]] {
			t.Fatalf("PopLevel returned level %d after level %d", level[batch[0]], level[got[len(got)-1]])
		}
		got = append(got, batch...)
	}
	if len(got) != len(want) {
		t.Fatalf("PopLevel drained %d gates, Pop %d", len(got), len(want))
	}
	seen := map[GateID]bool{}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: PopLevel gave %d, Pop %d", i, got[i], want[i])
		}
		if seen[got[i]] {
			t.Fatalf("gate %d drained twice", got[i])
		}
		seen[got[i]] = true
	}
	// A gate popped with its level can be queued again, once.
	b.Push(5, level[5])
	b.Push(5, level[5])
	if got := b.PopLevel(got[:0]); len(got) != 1 || got[0] != 5 || b.Len() != 0 {
		t.Fatalf("re-push after drain: PopLevel = %v, Len %d", got, b.Len())
	}
}
