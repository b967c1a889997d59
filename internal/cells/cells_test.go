package cells

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefault90nmValidates(t *testing.T) {
	lib := Default90nm()
	if err := lib.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(lib.Kinds()) != int(NumKinds) {
		t.Fatalf("stocked %d kinds, want %d", len(lib.Kinds()), NumKinds)
	}
}

func TestEightSizesPerKind(t *testing.T) {
	lib := Default90nm()
	for _, k := range lib.Kinds() {
		if n := lib.NumSizes(k); n != 8 {
			t.Errorf("%s: %d sizes, want 8", k, n)
		}
	}
}

func TestKindStringParseRoundTrip(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v,%v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("FOO9"); ok {
		t.Error("ParseKind accepted FOO9")
	}
}

func TestKindInputs(t *testing.T) {
	cases := map[Kind]int{
		INV: 1, BUF: 1, NAND2: 2, NOR3: 3, AND4: 4, XOR2: 2, OR3: 3,
	}
	for k, want := range cases {
		if got := k.Inputs(); got != want {
			t.Errorf("%s.Inputs() = %d, want %d", k, got, want)
		}
	}
}

func TestLookupAtGridPoints(t *testing.T) {
	tb := Table2D{
		Slews:  []float64{0, 10},
		Loads:  []float64{0, 100},
		Values: [][]float64{{1, 2}, {3, 4}},
	}
	cases := []struct{ s, l, want float64 }{
		{0, 0, 1}, {0, 100, 2}, {10, 0, 3}, {10, 100, 4},
		{5, 50, 2.5}, // center
	}
	for _, tc := range cases {
		if got := tb.Lookup(tc.s, tc.l); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Lookup(%g,%g) = %g, want %g", tc.s, tc.l, got, tc.want)
		}
	}
}

func TestLookupExtrapolation(t *testing.T) {
	tb := Table2D{
		Slews:  []float64{0, 10},
		Loads:  []float64{0, 100},
		Values: [][]float64{{0, 100}, {0, 100}},
	}
	// Linear in load: value == load everywhere, even outside the grid.
	if got := tb.Lookup(5, 200); math.Abs(got-200) > 1e-9 {
		t.Errorf("extrapolated Lookup = %g, want 200", got)
	}
	if got := tb.Lookup(5, -50); math.Abs(got-(-50)) > 1e-9 {
		t.Errorf("extrapolated Lookup = %g, want -50", got)
	}
}

func TestDelayMonotoneInLoad(t *testing.T) {
	lib := Default90nm()
	prop := func(kRaw uint8, sizeRaw uint8, l1, l2 float64) bool {
		k := Kind(kRaw % uint8(NumKinds))
		c := lib.Cell(k, int(sizeRaw)%lib.NumSizes(k))
		a, b := math.Abs(l1), math.Abs(l2)
		a = math.Mod(a, 300)
		b = math.Mod(b, 300)
		if a > b {
			a, b = b, a
		}
		return c.Delay.Lookup(30, a) <= c.Delay.Lookup(30, b)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBiggerDriveFasterAtSameLoad(t *testing.T) {
	lib := Default90nm()
	for _, k := range lib.Kinds() {
		g := lib.Group(k)
		for i := 1; i < len(g.Cells); i++ {
			d0 := g.Cells[i-1].Delay.Lookup(25, 40)
			d1 := g.Cells[i].Delay.Lookup(25, 40)
			if d1 >= d0 {
				t.Errorf("%s: size %d not faster than %d at load 40 (%g >= %g)", k, i, i-1, d1, d0)
			}
		}
	}
}

func TestCellPanicsOnBadAccess(t *testing.T) {
	lib := Default90nm()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("size out of range", func() { lib.Cell(INV, 99) })
	mustPanic("negative size", func() { lib.Cell(INV, -1) })
}

func TestValidateCatchesBrokenLibrary(t *testing.T) {
	lib := Default90nm()
	g := lib.Group(NAND2)
	// Corrupt: make X2 slower than X1 by scaling its delay values up.
	for i := range g.Cells[1].Delay.Values {
		for j := range g.Cells[1].Delay.Values[i] {
			g.Cells[1].Delay.Values[i][j] *= 10
		}
	}
	if err := lib.Validate(); err == nil {
		t.Fatal("Validate accepted corrupted library")
	}
}

// TestValidateRejectsNonPhysicalValues holds programmatic libraries to
// the same finite, non-negative rules as parsed Liberty: each case
// corrupts one number of the built-in library.
func TestValidateRejectsNonPhysicalValues(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(l *Library)
		msg     string
	}{
		{"nan delay", func(l *Library) { l.Cell(INV, 0).Delay.Values[0][0] = math.NaN() }, "delay table: value NaN"},
		{"negative delay", func(l *Library) { l.Cell(INV, 2).Delay.Values[1][1] = -1e9 }, "delay table: value -1e+09"},
		{"inf slew", func(l *Library) { l.Cell(NAND2, 1).OutSlew.Values[0][0] = math.Inf(1) }, "slew table: value +Inf"},
		{"negative area", func(l *Library) { l.Cell(INV, 0).Area = -1.12 }, "area -1.12"},
		{"nan capacitance", func(l *Library) { l.Cell(NOR2, 0).InputCap = math.NaN() }, "input capacitance NaN"},
		{"negative index", func(l *Library) { l.Cell(INV, 0).Delay.Slews[0] = -5 }, "index_1 entry -5"},
		{"descending index", func(l *Library) {
			ld := l.Cell(INV, 0).Delay.Loads
			ld[0], ld[1] = ld[1], ld[0]
		}, "index_2 not ascending"},
		{"ragged row", func(l *Library) {
			d := &l.Cell(INV, 0).Delay
			d.Values[0] = d.Values[0][:1]
		}, "row has 1 values"},
		{"nan input slew", func(l *Library) { l.PrimaryInputSlew = math.NaN() }, "primary input slew NaN"},
	} {
		lib := Default90nm()
		tc.corrupt(lib)
		err := lib.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: Validate() = %v, want an error mentioning %q", tc.name, err, tc.msg)
		}
	}
}

func TestXORCostlierThanNAND(t *testing.T) {
	// Sanity on logical-effort scaling: XOR2 should be slower and larger
	// than NAND2 at equal drive and load.
	lib := Default90nm()
	x := lib.Cell(XOR2, 0)
	n := lib.Cell(NAND2, 0)
	if x.Delay.Lookup(25, 20) <= n.Delay.Lookup(25, 20) {
		t.Error("XOR2 not slower than NAND2")
	}
	if x.Area <= n.Area {
		t.Error("XOR2 not larger than NAND2")
	}
}
