package designcache

import (
	"bytes"
	"errors"
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
	if _, _, err := c.intern(d1, sourceKey("d1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.intern(d2, sourceKey("d2")); err != nil {
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
	if _, _, err := c.intern(d, sourceKey("corrupt")); err == nil || !strings.Contains(err.Error(), "lint") {
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
	if _, _, err := c.intern(good, sourceKey("good")); err != nil {
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

// checkIndex asserts the source index invariants: every key points at a
// design still in the LRU and is listed on it, no design lists a key
// the index lacks, and no design keeps more than maxSources keys.
func checkIndex(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	listed := 0
	for el := c.designLRU.Front(); el != nil; el = el.Next() {
		e := el.Value.(*designEntry)
		if len(e.keys) > maxSources {
			t.Errorf("design %s keeps %d source keys, bound is %d", e.hash, len(e.keys), maxSources)
		}
		for _, k := range e.keys {
			if c.sources[k] != el {
				t.Errorf("design %s lists a key the index does not map to it", e.hash)
			}
		}
		listed += len(e.keys)
	}
	for _, el := range c.sources {
		e := el.Value.(*designEntry)
		if c.designs[e.hash] != el {
			t.Errorf("index holds a key of design %s, which has left the cache", e.hash)
		}
	}
	if listed != len(c.sources) {
		t.Errorf("designs list %d source keys, index holds %d", listed, len(c.sources))
	}
}

// countingLoad returns a load of text that counts its calls.
func countingLoad(text, name string, calls *int) func() (*repro.Design, error) {
	return func() (*repro.Design, error) {
		*calls++
		return repro.Load(strings.NewReader(text), repro.LoadSpec{Name: name})
	}
}

func TestSourceKeyParts(t *testing.T) {
	text := benchText(t, "alu1")
	if SourceKey("", text, "") != SourceKey("bench", text, "") {
		t.Fatal(`Format "" and "bench" key differently`)
	}
	if SourceKey("bench", text, "") == SourceKey("verilog", text, "") {
		t.Fatal("two formats share a key")
	}
	if SourceKey("bench", text, "") == SourceKey("bench", text, "library x {}") {
		t.Fatal("the same netlist with two Liberty texts shares a key")
	}
	// Length prefixes keep part boundaries apart.
	if sourceKey("ab", "c") == sourceKey("a", "bc") || sourceKey("generate", "c432") == sourceKey("generate", "c432", "") {
		t.Fatal("part boundaries collide")
	}
}

// TestResolveSameTextTwoNamesOneEntry shows the name stays out of the
// key: the second submission under another name is an index hit that
// does not load, and returns the first one's design.
func TestResolveSameTextTwoNamesOneEntry(t *testing.T) {
	c := New(0, 0)
	text := benchText(t, "c432")
	key := SourceKey("", text, "")
	calls := 0
	d1, h1, err := c.Resolve(key, countingLoad(text, "a", &calls))
	if err != nil {
		t.Fatal(err)
	}
	d2, h2, err := c.Resolve(key, countingLoad(text, "b", &calls))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("load ran %d times, want 1", calls)
	}
	if d1 != d2 || h1 != h2 {
		t.Fatalf("index hit returned another design: %s vs %s", h1, h2)
	}
	if s := c.Stats(); s.DesignHits != 1 || s.DesignMisses != 1 || s.Designs != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 design", s)
	}
	checkIndex(t, c)
}

// TestResolveTwoLibrariesTwoKeys submits one netlist with no library and
// with an inline library: two keys, two content addresses.
func TestResolveTwoLibrariesTwoKeys(t *testing.T) {
	text := benchText(t, "alu1")
	lib := cells.Default90nm()
	lib.PrimaryOutputLoad *= 2
	dLib, err := repro.Load(strings.NewReader(text), repro.LoadSpec{Name: "x", Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	var libText bytes.Buffer
	if err := dLib.SaveLiberty(&libText); err != nil {
		t.Fatal(err)
	}
	c := New(0, 0)
	_, h1, err := c.Parse(text, "x")
	if err != nil {
		t.Fatal(err)
	}
	_, h2, err := c.Resolve(SourceKey("bench", text, libText.String()), func() (*repro.Design, error) {
		l, err := repro.LoadLiberty(bytes.NewReader(libText.Bytes()), repro.IngestLimits{})
		if err != nil {
			return nil, err
		}
		return repro.Load(strings.NewReader(text), repro.LoadSpec{Name: "x", Library: l})
	})
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("two libraries resolved to one content address")
	}
	if n := len(c.sources); n != 2 {
		t.Fatalf("index holds %d keys, want 2", n)
	}
	checkIndex(t, c)
}

// TestResolveFailedLoadLeavesNoKey covers each way a load can fail: the
// load itself, a lint-failing netlist and a design interning refuses. Each
// resubmission must run the load again and fail the same way.
func TestResolveFailedLoadLeavesNoKey(t *testing.T) {
	c := New(0, 0)
	boom := errors.New("boom")
	undriven := "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n"
	corrupt := func() (*repro.Design, error) {
		d, err := repro.Generate("alu1")
		if err != nil {
			return nil, err
		}
		sd, _ := d.Internal()
		for i := range sd.Circuit.Gates {
			if g := &sd.Circuit.Gates[i]; g.Fn.IsLogic() {
				g.SizeIdx = 999
				break
			}
		}
		return d, nil
	}
	for _, tc := range []struct {
		name string
		key  Key
		load func() (*repro.Design, error)
	}{
		{"load error", sourceKey("t", "boom"), func() (*repro.Design, error) { return nil, boom }},
		{"lint at load", SourceKey("", undriven, ""), func() (*repro.Design, error) {
			return repro.Load(strings.NewReader(undriven), repro.LoadSpec{Name: "u"})
		}},
		{"lint at intern", sourceKey("t", "corrupt"), corrupt},
	} {
		var first error
		calls := 0
		for i := 0; i < 2; i++ {
			_, _, err := c.Resolve(tc.key, func() (*repro.Design, error) {
				calls++
				return tc.load()
			})
			if err == nil {
				t.Fatalf("%s: resolve succeeded", tc.name)
			}
			if i == 0 {
				first = err
			} else if err.Error() != first.Error() {
				t.Fatalf("%s: resubmission failed differently: %v, then %v", tc.name, first, err)
			}
		}
		if calls != 2 {
			t.Fatalf("%s: load ran %d times, want 2", tc.name, calls)
		}
	}
	if len(c.sources) != 0 {
		t.Fatalf("failed loads left %d index keys", len(c.sources))
	}
	if s := c.Stats(); s.Designs != 0 || s.DesignHits != 0 || s.DesignMisses != 0 {
		t.Fatalf("failed loads moved the design stats: %+v", s)
	}
}

// TestEvictionTakesIndexKeys evicts a design and checks its keys went
// with it: the next submission of its text loads again as a miss.
func TestEvictionTakesIndexKeys(t *testing.T) {
	c := New(1, 1)
	alu1, c432 := benchText(t, "alu1"), benchText(t, "c432")
	if _, _, err := c.Parse(alu1, "a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Generate("alu1"); err != nil {
		t.Fatal(err)
	}
	if n := len(c.sources); n != 2 {
		t.Fatalf("index holds %d keys, want 2 (text and built-in)", n)
	}
	if _, _, err := c.Parse(c432, "b"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.sources[SourceKey("", alu1, "")]; ok {
		t.Fatal("evicted design left its text key in the index")
	}
	if _, ok := c.sources[sourceKey("generate", "alu1")]; ok {
		t.Fatal("evicted design left its built-in key in the index")
	}
	checkIndex(t, c)
	calls := 0
	if _, _, err := c.Resolve(SourceKey("", alu1, ""), countingLoad(alu1, "a", &calls)); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatal("resolve after eviction did not load")
	}
	if s := c.Stats(); s.DesignMisses != 3 || s.DesignHits != 1 {
		t.Fatalf("stats = %+v, want 3 misses / 1 hit", s)
	}
	checkIndex(t, c)
}

// TestIndexBoundedUnderChurn interns many texts of one netlist and
// rotates more designs than the LRU holds: the index never outgrows
// maxSources keys per cached design and never points at an evicted one.
func TestIndexBoundedUnderChurn(t *testing.T) {
	c := New(2, 1)
	alu1 := benchText(t, "alu1")
	for i := 0; i < maxSources+3; i++ {
		if _, _, err := c.Parse(fmt.Sprintf("# variant %d\n%s", i, alu1), "a"); err != nil {
			t.Fatal(err)
		}
		checkIndex(t, c)
	}
	if s := c.Stats(); s.Designs != 1 || len(c.sources) != maxSources {
		t.Fatalf("designs %d, index keys %d; want 1 and %d", s.Designs, len(c.sources), maxSources)
	}
	for _, n := range []string{"alu2", "c432", "alu1", "c432", "alu2"} {
		if _, _, err := c.Generate(n); err != nil {
			t.Fatal(err)
		}
		checkIndex(t, c)
	}
	if len(c.sources) > 2*maxSources {
		t.Fatalf("index holds %d keys for 2 designs", len(c.sources))
	}
}

// TestConcurrentResolveSameText races eight resolves of one text: all
// return one design and address, one design is interned and one key
// indexed (run under -race in CI).
func TestConcurrentResolveSameText(t *testing.T) {
	c := New(0, 0)
	text := benchText(t, "c432")
	key := SourceKey("bench", text, "")
	ds := make([]*repro.Design, 8)
	hs := make([]string, 8)
	var wg sync.WaitGroup
	for i := range ds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			ds[i], hs[i], err = c.Resolve(key, func() (*repro.Design, error) {
				return repro.Load(strings.NewReader(text), repro.LoadSpec{Name: fmt.Sprintf("n%d", i)})
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := range ds {
		if ds[i] != ds[0] || hs[i] != hs[0] {
			t.Fatalf("resolve %d returned design %s, resolve 0 %s", i, hs[i], hs[0])
		}
	}
	s := c.Stats()
	if s.Designs != 1 || s.DesignMisses != 1 || s.DesignHits != 7 || len(c.sources) != 1 {
		t.Fatalf("stats = %+v with %d index keys; want 1 design, 1 miss, 7 hits, 1 key", s, len(c.sources))
	}
	checkIndex(t, c)
}

// TestGenerateRepeatAllocs pins what a repeated built-in costs: the
// first Generate of c432 generates, maps, lints and hashes it (about
// 5000 allocations), and a repeat — every cluster lease for the same
// built-in — must stay within 1 % of that by hitting the index.
func TestGenerateRepeatAllocs(t *testing.T) {
	c := New(0, 0)
	if _, _, err := c.Generate("c432"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := c.Generate("c432"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 50 {
		t.Fatalf("repeated Generate allocates %.0f times, want <= 50", allocs)
	}
}
