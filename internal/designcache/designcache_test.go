package designcache

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/cells"
)

func benchText(t *testing.T, name string) string {
	t.Helper()
	d, err := repro.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveBench(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestParseInternsByContent(t *testing.T) {
	c := New(0, 0)
	text := benchText(t, "c432")
	d1, h1, err := c.Parse(text, "a")
	if err != nil {
		t.Fatal(err)
	}
	d2, h2, err := c.Parse(text, "b")
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("same netlist hashed differently: %s vs %s", h1, h2)
	}
	if d1 != d2 {
		t.Fatal("second parse did not return the cached design instance")
	}
	s := c.Stats()
	if s.DesignHits != 1 || s.DesignMisses != 1 || s.Designs != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 design", s)
	}
}

func TestHashIsFormattingInvariant(t *testing.T) {
	c := New(0, 0)
	text := benchText(t, "alu1")
	// Reformat: blank lines and comments must not change the identity.
	noisy := "# a comment\n\n" + strings.ReplaceAll(text, "\n", "\n\n")
	_, h1, err := c.Parse(text, "x")
	if err != nil {
		t.Fatal(err)
	}
	_, h2, err := c.Parse(noisy, "y")
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("formatting noise changed the content address")
	}
}

// TestLibraryChangesHash pins the library fingerprint: the same netlist
// mapped onto two different libraries is two timing-distinct designs and
// must occupy two cache entries.
func TestLibraryChangesHash(t *testing.T) {
	text := benchText(t, "alu1")
	d1, err := repro.LoadBench(strings.NewReader(text), "x")
	if err != nil {
		t.Fatal(err)
	}
	lib := cells.Default90nm()
	lib.PrimaryOutputLoad *= 2
	d2, err := repro.Load(strings.NewReader(text), repro.LoadSpec{Name: "x", Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := HashDesign(d1)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HashDesign(d2)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("same netlist on two libraries collided on one content address")
	}
	c := New(0, 0)
	if _, _, err := c.Intern(d1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Intern(d2); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Designs != 2 {
		t.Fatalf("want 2 cached designs, have %d", s.Designs)
	}
}

func TestDistinctDesignsDistinctHashes(t *testing.T) {
	c := New(0, 0)
	_, h1, err := c.Parse(benchText(t, "alu1"), "a")
	if err != nil {
		t.Fatal(err)
	}
	_, h2, err := c.Parse(benchText(t, "c432"), "b")
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("different circuits collided")
	}
	if s := c.Stats(); s.Designs != 2 {
		t.Fatalf("want 2 cached designs, have %d", s.Designs)
	}
}

func TestResultMemoAndLRUEviction(t *testing.T) {
	c := New(2, 2)
	if _, ok := c.Result("h", "k1"); ok {
		t.Fatal("hit on empty cache")
	}
	c.PutResult("h", "k1", 1)
	c.PutResult("h", "k2", 2)
	if v, ok := c.Result("h", "k1"); !ok || v.(int) != 1 {
		t.Fatalf("lost k1: %v %v", v, ok)
	}
	// k1 is now most recent; inserting k3 must evict k2.
	c.PutResult("h", "k3", 3)
	if _, ok := c.Result("h", "k2"); ok {
		t.Fatal("k2 should have been evicted")
	}
	if _, ok := c.Result("h", "k3"); !ok {
		t.Fatal("k3 missing")
	}
	s := c.Stats()
	if s.Results != 2 {
		t.Fatalf("want 2 results, have %d", s.Results)
	}
	if s.ResultHits != 2 || s.ResultMisses != 2 {
		t.Fatalf("hit/miss accounting off: %+v", s)
	}
}

func TestDesignLRUEviction(t *testing.T) {
	c := New(1, 1)
	_, h1, err := c.Parse(benchText(t, "alu1"), "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Parse(benchText(t, "c432"), "b"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Design(h1); ok {
		t.Fatal("oldest design should have been evicted")
	}
	if s := c.Stats(); s.Designs != 1 {
		t.Fatalf("want 1 cached design, have %d", s.Designs)
	}
}

// Concurrent interning and analysis of the same netlist must be safe:
// the cache primes the circuit's lazy caches, so shared read-only
// analyses cannot race (run under -race in CI).
func TestConcurrentInternAndAnalyze(t *testing.T) {
	c := New(0, 0)
	text := benchText(t, "alu1")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, _, err := c.Parse(text, fmt.Sprintf("n%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			a := d.Analyze()
			if a.Mean <= 0 {
				t.Errorf("bad analysis: %+v", a)
			}
		}(i)
	}
	wg.Wait()
	if s := c.Stats(); s.Designs != 1 {
		t.Fatalf("concurrent interning left %d designs, want 1", s.Designs)
	}
}

// TestInternRefusesLintFailure proves the cache is a lint gate: a design
// with a structural error (here a corrupted drive-strength index) is
// refused, while lint warnings (dead logic in the built-in benchmarks)
// are admitted.
func TestInternRefusesLintFailure(t *testing.T) {
	c := New(0, 0)
	d, err := repro.Generate("alu1")
	if err != nil {
		t.Fatal(err)
	}
	sd, _ := d.Internal()
	for i := range sd.Circuit.Gates {
		if g := &sd.Circuit.Gates[i]; g.Fn.IsLogic() {
			g.SizeIdx = 999
			break
		}
	}
	if _, _, err := c.Intern(d); err == nil || !strings.Contains(err.Error(), "lint") {
		t.Fatalf("corrupted design interned, err = %v", err)
	}
	if s := c.Stats(); s.Designs != 0 {
		t.Fatalf("refused design still cached: %+v", s)
	}

	// c432 carries a dangling-buffer warning; warnings must not refuse.
	good, err := repro.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Intern(good); err != nil {
		t.Fatalf("warning-only design refused: %v", err)
	}
}

// TestEvictionUnderConcurrentInternAndFetch hammers a capacity-2 design
// cache from many goroutines rotating over three distinct netlists —
// the cluster worker's mirror pattern, where fetches and evictions
// interleave freely. Every Parse must return a usable design and every
// Design hit a non-nil one, with the cache never exceeding its cap
// (run under -race in CI).
func TestEvictionUnderConcurrentInternAndFetch(t *testing.T) {
	c := New(2, 1)
	names := []string{"alu1", "alu2", "c432"}
	texts := make([]string, len(names))
	hashes := make([]string, len(names))
	for i, n := range names {
		texts[i] = benchText(t, n)
		_, h, err := c.Parse(texts[i], n)
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = h
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				i := (g + j) % len(names)
				d, h, err := c.Parse(texts[i], names[i])
				if err != nil {
					t.Errorf("parse %s: %v", names[i], err)
					return
				}
				if d == nil || h != hashes[i] {
					t.Errorf("parse %s returned d=%v hash=%s, want hash %s", names[i], d, h, hashes[i])
					return
				}
				// A concurrent fetch may hit or miss depending on eviction
				// order, but a hit must never surface a nil design.
				if d2, ok := c.Design(hashes[(i+1)%len(names)]); ok && d2 == nil {
					t.Error("Design hit returned nil design")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.Designs > 2 {
		t.Fatalf("cache holds %d designs, cap is 2", s.Designs)
	}
}

// TestHashDesignPinned freezes the content address of two built-in
// designs. Journal replay, JobStatus.DesignHash and the cluster worker's
// re-hash check all compare hashes computed by different processes and
// builds, so a change to HashDesign, the canonical .bench writer or the
// default library's Liberty text must fail here rather than silently
// orphan journaled jobs. Do not re-pin these values to make a change
// pass: an address change is a wire-compatibility break.
func TestHashDesignPinned(t *testing.T) {
	for _, tc := range []struct{ name, hash string }{
		{"alu2", "b34552262036b470ea10fdfe82e3bee1b5b2c69c324e81efd9a0990c97c368b4"},
		{"c432", "8d37e8b1f8dc9ab5a57e363e72a01da4065457910b355dcd79aa93d780c5723e"},
	} {
		d, err := repro.Generate(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := HashDesign(d)
		if err != nil {
			t.Fatal(err)
		}
		if h != tc.hash {
			t.Errorf("%s: content address %s, pinned %s", tc.name, h, tc.hash)
		}
	}
}

// BenchmarkHashDesign measures the content address of c2670 on the
// default library: the canonical .bench text plus the Liberty text of
// the library, as every sstad submission computes it.
func BenchmarkHashDesign(b *testing.B) {
	d, err := repro.Generate("c2670")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HashDesign(d); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLibertyRoundTripBitIdentical closes the Liberty round trip on c432:
// SaveLiberty -> LoadLiberty -> Load must reproduce the
// default-library design exactly — the same Liberty bytes, the same
// content address and a bit-identical analysis. The original design
// writes the once-rendered text of the shared default library while the
// reloaded one renders its own library on each call, so this also pins
// that the two paths agree for libraries of equal content. It starts by
// mutating a caller-owned cells.Default90nm to show that such a copy
// never reaches the designs FromCircuit builds.
func TestLibertyRoundTripBitIdentical(t *testing.T) {
	text := benchText(t, "c432")
	mut := cells.Default90nm()
	mut.PrimaryOutputLoad *= 2
	mut.Cell(cells.INV, 0).Area *= 2
	dMut, err := repro.Load(strings.NewReader(text), repro.LoadSpec{Name: "c432", Library: mut})
	if err != nil {
		t.Fatal(err)
	}
	dFresh, err := repro.Load(strings.NewReader(text), repro.LoadSpec{Name: "c432", Library: cells.Default90nm()})
	if err != nil {
		t.Fatal(err)
	}

	d, err := repro.Generate("c432")
	if err != nil {
		t.Fatal(err)
	}
	libText := func(d *repro.Design) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := d.SaveLiberty(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	orig := libText(d)
	if !bytes.Equal(orig, libText(dFresh)) {
		t.Fatal("default-library Liberty text differs from a fresh library's rendering")
	}
	if bytes.Equal(orig, libText(dMut)) {
		t.Fatal("a mutated caller-owned library reached a FromCircuit design")
	}

	lib, err := repro.LoadLiberty(bytes.NewReader(orig), repro.IngestLimits{})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := repro.Load(strings.NewReader(text), repro.LoadSpec{Name: "c432", Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, libText(d2)) {
		t.Fatal("Liberty text changed across SaveLiberty -> LoadLiberty")
	}
	h1, err := HashDesign(d)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HashDesign(d2)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("round-tripped design hashes %s, default-library design %s", h2, h1)
	}
	a1, a2 := d.Analyze(), d2.Analyze()
	if a1.Mean != a2.Mean || a1.Sigma != a2.Sigma || a1.NominalDelay != a2.NominalDelay ||
		!slices.Equal(a1.PDFX, a2.PDFX) || !slices.Equal(a1.PDFY, a2.PDFY) {
		t.Fatalf("round trip changed the analysis: mean %v/%v sigma %v/%v nominal %v/%v",
			a1.Mean, a2.Mean, a1.Sigma, a2.Sigma, a1.NominalDelay, a2.NominalDelay)
	}
}
