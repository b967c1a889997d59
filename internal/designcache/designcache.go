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
// In front of the content address sits a source index: the SHA-256 of
// one load's inputs (SourceKey: the netlist format, the raw netlist text
// and the inline Liberty text; a built-in is ("generate", name)) maps to
// the content address that load interned as. Resolve asks it first, so
// a repeated submission of the same text skips parse, lint, mapping and
// HashDesign. A key is recorded only after its load interned, so
// rejected text is loaded and diagnosed again on every submission. The
// index holds 32-byte digests, never text, at most maxSources per
// design, and a design's keys leave with it when the LRU evicts it.
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
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
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

// maxSources bounds the source keys one design keeps in the index (the
// same netlist can arrive as many texts); the oldest key goes first.
const maxSources = 8

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
	sources    map[Key]*list.Element    // source key -> design element
	results    map[string]*list.Element // hash+"\x00"+optsKey -> *resultEntry
	resultLRU  *list.List
	stats      Stats
}

type designEntry struct {
	hash string
	d    *repro.Design
	keys []Key // source keys indexed to this design, oldest first
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
		sources:    make(map[Key]*list.Element),
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
	// Every piece between newlines, the one after the last newline
	// included, is hashed with a trailing '\n' unless it is a comment.
	text := buf.Bytes()
	for {
		line, rest, more := bytes.Cut(text, newline)
		if !bytes.HasPrefix(bytes.TrimSpace(line), comment) {
			h.Write(line)
			h.Write(newline)
		}
		if !more {
			break
		}
		text = rest
	}
	h.Write(libertySep)
	if err := d.SaveLiberty(h); err != nil {
		return "", fmt.Errorf("designcache: library fingerprint: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

var (
	newline    = []byte{'\n'}
	comment    = []byte{'#'}
	libertySep = []byte("\x00liberty\x00")
)

// Key is a source-index key: the SHA-256 of one load's inputs. It
// stands in for the text, which the index never holds.
type Key [sha256.Size]byte

// SourceKey returns the key of an inline load: its netlist format (""
// is "bench"), the raw netlist text and the inline Liberty text ("" for
// the default library). The load's name and budgets are not part of it:
// the content address ignores the name, and one cache's loads share one
// budget envelope.
func SourceKey(format, netlist, liberty string) Key {
	if format == "" {
		format = "bench"
	}
	return sourceKey(format, netlist, liberty)
}

// sourceKey hashes each part behind its length, so that no two part
// lists hash the same byte stream.
func sourceKey(parts ...string) Key {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		io.WriteString(h, p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Resolve returns the shared cached design of the load whose inputs key
// stands for. On an index hit it returns the design and its content
// address with a design hit counted, and load does not run. Otherwise it
// runs load and interns the result by content address: an equivalent
// cached design is returned in its place (a design hit), a new one is
// stored with its levelization primed (a miss). Interning refuses
// designs with lint errors. key is recorded only when interning
// succeeds, so rejected input is loaded, and diagnosed, every time.
// Concurrent misses on one key may both load; they intern to one entry.
// The returned design is shared: treat it as read-only (Clone before
// optimizing).
func (c *Cache) Resolve(key Key, load func() (*repro.Design, error)) (*repro.Design, string, error) {
	c.mu.Lock()
	if el, ok := c.sources[key]; ok {
		c.designLRU.MoveToFront(el)
		c.stats.DesignHits++
		e := el.Value.(*designEntry)
		c.mu.Unlock()
		return e.d, e.hash, nil
	}
	c.mu.Unlock()
	d, err := load()
	if err != nil {
		return nil, "", err
	}
	return c.intern(d, key)
}

// Parse loads benchText through repro.Load (default library and budgets)
// and returns the shared cached design for it, resolving by SourceKey.
func (c *Cache) Parse(benchText, name string) (*repro.Design, string, error) {
	return c.Resolve(SourceKey("bench", benchText, ""), func() (*repro.Design, error) {
		return repro.Load(strings.NewReader(benchText), repro.LoadSpec{Name: name})
	})
}

// Generate returns the shared cached design for a built-in benchmark,
// resolving by the key ("generate", name).
func (c *Cache) Generate(name string) (*repro.Design, string, error) {
	return c.Resolve(sourceKey("generate", name), func() (*repro.Design, error) {
		return repro.Generate(name)
	})
}

// intern deduplicates d against the cache by content address and
// indexes key to the result: when an equivalent design is already
// cached, the CACHED instance and a design hit are returned and d is
// dropped; otherwise d itself is stored (with its levelization primed)
// and returned with a miss counted.
func (c *Cache) intern(d *repro.Design, key Key) (*repro.Design, string, error) {
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
	el, ok := c.designs[hash]
	if ok {
		c.designLRU.MoveToFront(el)
		c.stats.DesignHits++
	} else {
		c.stats.DesignMisses++
		// Prime the lazy topological-order and level caches under the
		// cache lock, so every future (possibly concurrent) reader takes
		// the read-only fast path.
		sd.Circuit.Levels()
		el = c.designLRU.PushFront(&designEntry{hash: hash, d: d})
		c.designs[hash] = el
		for c.designLRU.Len() > c.maxDesigns {
			old := c.designLRU.Back()
			c.designLRU.Remove(old)
			e := old.Value.(*designEntry)
			delete(c.designs, e.hash)
			for _, k := range e.keys {
				delete(c.sources, k)
			}
		}
	}
	e := el.Value.(*designEntry)
	if _, ok := c.sources[key]; !ok {
		if len(e.keys) == maxSources {
			delete(c.sources, e.keys[0])
			e.keys = append(e.keys[:0], e.keys[1:]...)
		}
		e.keys = append(e.keys, key)
		c.sources[key] = el
	}
	return e.d, hash, nil
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
