package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sync"
	"time"

	"abft/internal/core"
	"abft/internal/precond"
)

// ErrUnknownOperator reports a solve addressed by an operator handle
// ({"operator": "<digest>"}) whose source the service no longer holds:
// never sent, or evicted with the last operator built from it. The
// request carried no document to rebuild from, so the client resends it
// (HTTP 404).
var ErrUnknownOperator = errors.New("not resident (never sent, or evicted): resend the request with the matrix document in place of the handle")

func unknownOperator(digest string) error {
	return fmt.Errorf("operator %s: %w", digest, ErrUnknownOperator)
}

// sourceDigest addresses an operator source by the bytes the client
// sent, before anything is parsed: SHA-256 (hex) over a per-kind domain
// tag and the source as sent — the MatrixMarket document, the grid
// dimensions, or the dimensions and triplets of a raw specification.
// quoted, when non-nil, is an HTTP request's matrix_market value as it
// lay in the body (a JSON string, quotes and escapes included); it is
// hashed where it lies under a tag of its own, so the same document sent
// through Submit addresses a second, equally correct entry. An operator
// handle is its own digest. Two sources share a digest only when they
// are byte-identical; two that merely parse to the same matrix build
// twice and never serve each other's operator.
func sourceDigest(spec *MatrixSpec, quoted []byte) (string, error) {
	if err := spec.check(quoted); err != nil {
		return "", err
	}
	if spec.Operator != "" {
		return spec.Operator, nil
	}
	h := sha256.New()
	switch {
	case quoted != nil:
		io.WriteString(h, "matrix_market/json\x00")
		h.Write(quoted)
	case spec.MatrixMarket != "":
		io.WriteString(h, "matrix_market\x00")
		io.WriteString(h, spec.MatrixMarket)
	case spec.Grid != nil:
		fmt.Fprintf(h, "grid\x00%dx%d", spec.Grid.NX, spec.Grid.NY)
	default:
		fmt.Fprintf(h, "entries\x00%dx%d", spec.Rows, spec.Cols)
		buf := make([]byte, 0, 24*128)
		for _, t := range spec.Entries {
			if len(buf) == cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Row))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Col))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Val))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// operatorKey identifies a protected operator by source digest and
// protection configuration: two requests share a cached operator exactly
// when their sources are byte-identical and every knob that shapes the
// protected image agrees.
func operatorKey(digest string, p solveParams) string {
	key := fmt.Sprintf("%s|%v|%v|%v|%d", digest, p.format, p.scheme, p.rowptr, p.sigma)
	if p.shards > 1 {
		// A sharded operator is a different resident structure: the band
		// count and the halo-buffer protection both shape its image.
		key += fmt.Sprintf("|shards=%d|%v", p.shards, p.vectors)
	}
	if p.precond != precond.None {
		// The cached preconditioner's setup product is resident state of
		// its own; requests with different preconditioners must not share
		// an entry.
		key += fmt.Sprintf("|pre=%v", p.precond)
	}
	return key
}

// cacheEntry is one resident protected operator. The mutex arbitrates
// repairs, not reads: solve jobs hold it shared for the duration of
// their solve (the operator is built in shared mode, so Apply never
// writes matrix storage), while the scrub daemon takes it exclusively
// so its in-place corrections never race with a solve streaming the
// same codewords.
type cacheEntry struct {
	key string
	// digest is the source digest the entry was built from (the key's
	// content half); the entry holds one reference on its sources memo.
	digest string
	// ready is closed once build completes (m, jac, jacErr, pre and
	// buildErr are set); concurrent requests for a building operator
	// wait on it instead of encoding a duplicate.
	ready    chan struct{}
	m        core.ProtectedMatrix
	buildErr error
	// jac is the entry's resident protected Jacobi, the D^-1 its jacobi
	// solves and unpreconditioned fgmres solves scale by
	// (solvers.ResidentJacobi); jacErr is why none was built (a zero on
	// the diagonal), reported to the solves that need one. pre is the
	// named preconditioner (nil for none; jac itself for jacobi). Both
	// share the operator's counters and lock discipline: solves apply
	// them under the shared lock in no-commit mode, the scrub daemon
	// repairs them under the exclusive lock.
	jac    precond.Preconditioner
	jacErr error
	pre    precond.Preconditioner
	// shards is the operator's band count (1 for unsharded operators),
	// recorded for the /metrics shard gauge and per-shard scrub stats.
	shards int

	mu sync.RWMutex

	elem  *list.Element
	built bool // set under operatorCache.mu; only built entries are evictable
}

// CacheStats is a point-in-time summary of cache activity.
type CacheStats struct {
	// Entries is the current resident operator count.
	Entries int
	// Builds counts operators encoded (cache misses that succeeded).
	Builds uint64
	// Hits counts requests served by a resident (or in-flight) operator.
	Hits uint64
	// BuildErrors counts failed encode attempts.
	BuildErrors uint64
	// SourceParses counts operator sources read and assembled (a
	// MatrixMarket parse, a grid generated, triplets sorted into CSR): one
	// per admission of an unknown digest, plus one per build for a job
	// admitted on a known one (its entry evicted since, or none yet under
	// its knobs).
	SourceParses uint64
	// EvictedLRU counts capacity evictions.
	EvictedLRU uint64
	// EvictedFault counts operators dropped because scrubbing found a
	// detected-but-uncorrectable fault.
	EvictedFault uint64
	// Shards is the current resident shard count summed over every
	// operator (an unsharded operator counts one).
	Shards int
	// Preconditioners is the current count of resident named
	// preconditioners (entries whose request named one, its setup
	// product cached and scrubbed). The Jacobi every entry keeps counts
	// only when it is the named one.
	Preconditioners int
}

// operatorCache is the content-addressed LRU of protected operators.
// Builds are single-flight: N concurrent requests for one new key pay
// one encode.
type operatorCache struct {
	log     *slog.Logger
	mu      sync.Mutex
	max     int
	lru     *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*cacheEntry
	// sources remembers, per source digest, the structural profile (row
	// count included) admission needs of an operator it has already read
	// once, so a request for a known digest never re-reads its document.
	// It is not a second store: a digest is remembered for exactly as
	// long as some resident or building entry was built from it, and
	// leaves with the last such entry on LRU, fault or scrub eviction.
	sources map[string]*sourceMemo
	stats   CacheStats
	// retired accumulates the ABFT counters of evicted operators so the
	// service totals survive eviction.
	retired core.CounterSnapshot
}

// sourceMemo is one remembered operator source: its admission-time
// profile and the number of cache entries built from it.
type sourceMemo struct {
	profile MatrixProfile
	entries int
}

func newOperatorCache(max int, log *slog.Logger) *operatorCache {
	if max < 1 {
		max = 1
	}
	return &operatorCache{
		log:     log,
		max:     max,
		lru:     list.New(),
		entries: make(map[string]*cacheEntry),
		sources: make(map[string]*sourceMemo),
	}
}

// profile returns the remembered profile of a source digest, and whether
// the digest is known.
func (c *operatorCache) profile(digest string) (MatrixProfile, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.sources[digest]; ok {
		return m.profile, true
	}
	return MatrixProfile{}, false
}

// countParse records one operator source read and assembled.
func (c *operatorCache) countParse() {
	c.mu.Lock()
	c.stats.SourceParses++
	c.mu.Unlock()
}

// get returns the entry for key, building it with build on a miss (the
// builder fills in the operator, its resident Jacobi and the named
// preconditioner); the new entry remembers prof under its source digest
// for as long as it lives. The second return reports whether the encode
// cost was amortised (a hit on a resident or concurrently-building
// operator).
func (c *operatorCache) get(key, digest string, prof MatrixProfile, build func(*cacheEntry) error) (*cacheEntry, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.stats.Hits++
		c.mu.Unlock()
		<-e.ready
		if e.buildErr != nil {
			return nil, false, e.buildErr
		}
		return e, true, nil
	}
	e := &cacheEntry{key: key, digest: digest, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	memo := c.sources[digest]
	if memo == nil {
		memo = &sourceMemo{profile: prof}
		c.sources[digest] = memo
	}
	memo.entries++
	c.mu.Unlock()

	buildStart := time.Now()
	err := build(e)

	c.mu.Lock()
	if err != nil {
		c.stats.BuildErrors++
		c.removeLocked(e)
		c.log.Warn("operator build failed", "operator", opShort(key), "err", err)
	} else {
		e.shards = 1
		if sh, ok := e.m.(interface{ Shards() int }); ok {
			e.shards = sh.Shards()
		}
		e.built = true
		c.stats.Builds++
		c.evictOverCapacityLocked()
		c.log.Debug("operator built", "operator", opShort(key),
			"rows", e.m.Rows(), "shards", e.shards, "build_time", time.Since(buildStart))
	}
	c.mu.Unlock()
	e.buildErr = err
	close(e.ready)
	if err != nil {
		return nil, false, err
	}
	return e, false, nil
}

// has reports whether an entry for key is resident or building.
func (c *operatorCache) has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key] != nil
}

// lookup returns the resident, fully built entry for key, or nil.
func (c *operatorCache) lookup(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.built {
		return e
	}
	return nil
}

// resident snapshots the built entries, oldest first — the scrub
// daemon's patrol order, so the operators longest without a check are
// scrubbed first.
func (c *operatorCache) resident() []*cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*cacheEntry, 0, len(c.entries))
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*cacheEntry); e.built {
			out = append(out, e)
		}
	}
	return out
}

// evictFault drops an operator whose scrub found an uncorrectable
// fault. The next request for its content rebuilds it from the source,
// which is the recovery the paper leaves to the application.
func (c *operatorCache) evictFault(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[e.key] == e {
		c.removeLocked(e)
		c.stats.EvictedFault++
		c.log.Warn("operator evicted on fault", "operator", opShort(e.key))
	}
}

// evictOverCapacityLocked drops least-recently-used built entries until
// the cache fits. Entries still building are never evicted (their
// waiters hold no reference yet).
func (c *operatorCache) evictOverCapacityLocked() {
	for len(c.entries) > c.max {
		victim := (*cacheEntry)(nil)
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*cacheEntry); e.built {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		c.removeLocked(victim)
		c.stats.EvictedLRU++
		c.log.Debug("operator evicted, cache full", "operator", opShort(victim.key))
	}
}

func (c *operatorCache) removeLocked(e *cacheEntry) {
	if e.built {
		c.retired = c.retired.Add(e.m.CounterSnapshot())
	}
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	memo := c.sources[e.digest]
	if memo.entries--; memo.entries == 0 {
		delete(c.sources, e.digest)
	}
}

// OperatorCounters aggregates the ABFT counters of every operator the
// cache has held, resident and evicted.
func (c *operatorCache) OperatorCounters() core.CounterSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.retired
	for _, e := range c.entries {
		if e.built {
			total = total.Add(e.m.CounterSnapshot())
		}
	}
	return total
}

// Stats returns a snapshot of cache activity.
func (c *operatorCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	for _, e := range c.entries {
		if e.built {
			s.Shards += e.shards
			if e.pre != nil {
				s.Preconditioners++
			}
		}
	}
	return s
}
