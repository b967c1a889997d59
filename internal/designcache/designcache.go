// Package designcache is the content-addressed store behind the sstad
// service: it deduplicates parsed designs and memoizes analysis results
// so that a design submitted dozens of times (the paper's workflow —
// FULLSSTA, WNSS trace, resize, Monte-Carlo signoff, each at several
// lambdas and clock targets) is parsed, mapped and levelized once and
// repeated (design, options) queries become cache hits.
//
// # Keying
//
// A design's identity is the SHA-256 of its canonical .bench text
// followed by its library's Liberty text (see HashDesign): the netlist
// is parsed and re-emitted through benchfmt.Write, so two netlists that
// differ only in formatting, comment placement or line order hash to the
// same key. Result memoization keys are the design hash joined with an
// opaque, caller-built option string (the server uses the canonical JSON
// of the job request minus the netlist).
//
// # Concurrency and mutability
//
// Cached *repro.Design values are shared between callers and MUST be
// treated read-only: analysis entry points only read the netlist, but
// the optimizers resize gates in place, so any mutating caller must
// Clone() first (the server's job runner does). Interning primes the
// circuit's lazily-computed topological-order and level caches while the
// cache lock is held, so concurrent read-only analyses never race on
// them.
package designcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"repro"
	"repro/internal/circuitlint"
)

// DefaultDesigns and DefaultResults are the LRU bounds New applies when
// given non-positive limits.
const (
	DefaultDesigns = 64
	DefaultResults = 1024
)

// Stats counts cache traffic. Hits and misses are cumulative since the
// cache was built; Designs and Results are current occupancy.
type Stats struct {
	DesignHits, DesignMisses uint64
	ResultHits, ResultMisses uint64
	Designs, Results         int
}

// Cache is a bounded, thread-safe design and result store. The zero
// value is not usable; call New.
type Cache struct {
	mu         sync.Mutex
	maxDesigns int
	maxResults int
	designs    map[string]*list.Element // hash -> *designEntry
	designLRU  *list.List               // front = most recently used
	results    map[string]*list.Element // hash+"\x00"+optsKey -> *resultEntry
	resultLRU  *list.List
	stats      Stats
}

type designEntry struct {
	hash string
	d    *repro.Design
}

type resultEntry struct {
	key string
	v   any
}

// New builds a cache bounded to maxDesigns parsed designs and maxResults
// memoized results (non-positive values select the defaults).
func New(maxDesigns, maxResults int) *Cache {
	if maxDesigns <= 0 {
		maxDesigns = DefaultDesigns
	}
	if maxResults <= 0 {
		maxResults = DefaultResults
	}
	return &Cache{
		maxDesigns: maxDesigns,
		maxResults: maxResults,
		designs:    make(map[string]*list.Element),
		designLRU:  list.New(),
		results:    make(map[string]*list.Element),
		resultLRU:  list.New(),
	}
}

// HashDesign returns the design's content address: the SHA-256 (hex) of
// its canonical .bench text with comment lines stripped, followed by the
// canonical Liberty text of the library it is mapped onto. Comments carry
// the circuit's display name, which is presentation, not content — the
// same netlist submitted under two names must land on one cache entry.
// The library fingerprint keeps the same netlist mapped onto two
// different libraries (timing-distinct designs) from colliding on one
// entry; since every .bench-replicated reconstruction uses the default
// library, a custom-library design that reaches a cluster worker fails
// its hash check loudly instead of silently computing with the wrong
// timing.
func HashDesign(d *repro.Design) (string, error) {
	var buf bytes.Buffer
	if err := d.SaveBench(&buf); err != nil {
		return "", fmt.Errorf("designcache: canonicalize: %w", err)
	}
	h := sha256.New()
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	var lib bytes.Buffer
	if err := d.SaveLiberty(&lib); err != nil {
		return "", fmt.Errorf("designcache: library fingerprint: %w", err)
	}
	h.Write([]byte("\x00liberty\x00"))
	h.Write(lib.Bytes())
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Parse loads benchText through repro.Load (default library and budgets)
// and returns the shared cached design for it, interning on first sight.
// The returned design is shared: treat it as read-only (Clone before
// optimizing).
func (c *Cache) Parse(benchText, name string) (*repro.Design, string, error) {
	d, err := repro.Load(strings.NewReader(benchText), repro.LoadSpec{Name: name})
	if err != nil {
		return nil, "", err
	}
	return c.Intern(d)
}

// Generate returns the shared cached design for a built-in benchmark,
// generating and interning on first sight.
func (c *Cache) Generate(name string) (*repro.Design, string, error) {
	d, err := repro.Generate(name)
	if err != nil {
		return nil, "", err
	}
	return c.Intern(d)
}

// Intern deduplicates d against the cache by content address: when an
// equivalent design is already cached, the CACHED instance and a design
// hit are returned and d is dropped; otherwise d itself is stored (with
// its levelization primed) and returned with a miss counted.
func (c *Cache) Intern(d *repro.Design) (*repro.Design, string, error) {
	// The cache is the last gate before a design is shared service-wide:
	// refuse anything with structural lint errors (warnings — dead logic
	// — are analyzable and admitted).
	sd, _ := d.Internal()
	if diags := circuitlint.Errors(circuitlint.LintDesign(sd)); len(diags) > 0 {
		return nil, "", fmt.Errorf("designcache: design fails lint: %s", diags[0].Msg)
	}
	hash, err := HashDesign(d)
	if err != nil {
		return nil, "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.designs[hash]; ok {
		c.designLRU.MoveToFront(el)
		c.stats.DesignHits++
		return el.Value.(*designEntry).d, hash, nil
	}
	c.stats.DesignMisses++
	// Prime the lazy topological-order and level caches under the cache
	// lock, so every future (possibly concurrent) reader takes the
	// read-only fast path.
	sd.Circuit.Levels()
	c.designs[hash] = c.designLRU.PushFront(&designEntry{hash: hash, d: d})
	for c.designLRU.Len() > c.maxDesigns {
		el := c.designLRU.Back()
		c.designLRU.Remove(el)
		delete(c.designs, el.Value.(*designEntry).hash)
	}
	return d, hash, nil
}

// Design returns the cached design for a hash, without affecting hit
// statistics (used by jobs that already hold a hash from submit time).
func (c *Cache) Design(hash string) (*repro.Design, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.designs[hash]
	if !ok {
		return nil, false
	}
	c.designLRU.MoveToFront(el)
	return el.Value.(*designEntry).d, true
}

func resultKey(hash, optsKey string) string { return hash + "\x00" + optsKey }

// Result looks up a memoized result for (design hash, option key) and
// counts a hit or miss.
func (c *Cache) Result(hash, optsKey string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.results[resultKey(hash, optsKey)]
	if !ok {
		c.stats.ResultMisses++
		return nil, false
	}
	c.resultLRU.MoveToFront(el)
	c.stats.ResultHits++
	return el.Value.(*resultEntry).v, true
}

// PutResult memoizes v under (design hash, option key), evicting the
// least recently used entry beyond the bound.
func (c *Cache) PutResult(hash, optsKey string, v any) {
	key := resultKey(hash, optsKey)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.results[key]; ok {
		el.Value.(*resultEntry).v = v
		c.resultLRU.MoveToFront(el)
		return
	}
	c.results[key] = c.resultLRU.PushFront(&resultEntry{key: key, v: v})
	for c.resultLRU.Len() > c.maxResults {
		el := c.resultLRU.Back()
		c.resultLRU.Remove(el)
		delete(c.results, el.Value.(*resultEntry).key)
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Designs = c.designLRU.Len()
	s.Results = c.resultLRU.Len()
	return s
}
