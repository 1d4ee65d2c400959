package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/obs"
	"cpsdyn/internal/switching"
)

// Derive recomputes two expensive intermediates for every application: the
// delay-split discretisation (matrix exponentials) and the exhaustively
// simulated dwell/wait curve. Fleet workloads reuse a handful of plants with
// identical timing, so both are memoised behind a bounded cache keyed by the
// exact bit pattern of the plant matrices and timing parameters. Cached
// values (*lti.Discrete, *switching.Curve) are shared between Derived
// results and must be treated as immutable, which every package in this
// module already does.
//
// The cache is LRU (a hit refreshes the entry) and size-aware: besides the
// entry-count capacity an optional byte budget bounds the approximate
// retained memory, so a service keeping the cache warm across requests can
// cap its footprint no matter how many distinct plants it sees.

// memoEntry is one in-flight or completed computation. Waiters block on
// ready; the goroutine that created the entry fills val/err and closes it.
type memoEntry struct {
	key   string
	ready chan struct{}
	val   any
	err   error
	size  int64 // approximate bytes; 0 while the computation is in flight
	elem  *list.Element
}

// ArtifactStore is the optional disk-backed persistence layer beneath the
// memo cache (internal/store in production). The cache reads through it on
// a memory miss and writes behind on a successful fill; both calls must be
// cheap to fail — a store that misses or drops only costs a re-derivation.
// Implementations must be safe for concurrent use and must return values
// bit-identical to the ones stored: cached artefacts are shared and
// treated as immutable everywhere in this module.
type ArtifactStore interface {
	// Get returns the artefact stored under key, or ok=false on any miss
	// (absent, corrupt, unreadable — the cache does not distinguish).
	Get(key string) (any, bool)
	// Put persists the artefact under key, asynchronously if it likes.
	Put(key string, v any)
}

// memoCache is a thread-safe size-aware LRU memoisation cache with
// single-flight semantics: concurrent requests for the same key share one
// computation. Failed computations are not retained. An optional
// ArtifactStore adds a disk layer: memory misses read through it (counted
// as diskHits, distinct from memory hits and from misses) and successful
// computations write behind to it.
type memoCache struct {
	mu         sync.Mutex
	capEntries int   // always ≥ 1
	capBytes   int64 // ≤ 0 means unbounded
	m          map[string]*memoEntry
	lru        *list.List // front = most recently used, back = eviction victim
	bytes      int64
	hits       uint64
	misses     uint64
	diskHits   uint64
	evictions  uint64
	sizeOf     func(any) int64
	store      ArtifactStore // nil = memory only
}

// newMemoCache builds a cache holding at most capacity entries and (when
// maxBytes > 0) roughly maxBytes of cached values. A capacity below 1 is
// clamped to 1: with capacity ≤ 0 the insert path would immediately evict
// its own just-inserted in-flight entry, silently disabling the
// single-flight deduplication every waiter relies on.
func newMemoCache(capacity int, maxBytes int64) *memoCache {
	if capacity < 1 {
		capacity = 1
	}
	return &memoCache{
		capEntries: capacity,
		capBytes:   maxBytes,
		m:          make(map[string]*memoEntry),
		lru:        list.New(),
		sizeOf:     approxSize,
	}
}

// evictLocked drops least-recently-used entries until both bounds hold.
// The most recently used entry is never evicted, so the entry a caller just
// inserted (and any sole remaining entry) always survives; this also
// guarantees termination when a single value exceeds the byte budget.
func (c *memoCache) evictLocked() {
	for c.lru.Len() > 1 &&
		(c.lru.Len() > c.capEntries || (c.capBytes > 0 && c.bytes > c.capBytes)) {
		victim := c.lru.Back().Value.(*memoEntry)
		// Evicting an in-flight entry is safe: waiters hold the entry
		// pointer and only the map forgets it.
		c.removeLocked(victim)
		c.evictions++
	}
}

func (c *memoCache) removeLocked(e *memoEntry) {
	delete(c.m, e.key)
	c.lru.Remove(e.elem)
	c.bytes -= e.size
}

// isCancellation reports whether err is a context expiry.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// get returns the cached value for key, computing it at most once across
// concurrent callers (single-flight). compute receives the owning caller's
// context; a cancelled computation is not retained, and a waiter whose own
// context is still live retries (possibly becoming the new owner) instead of
// inheriting the cancelled owner's error — cancellation never poisons an
// entry for the callers that did not cancel. A waiter whose own context
// expires stops waiting immediately with that context's error.
//
// With an ArtifactStore attached, a memory miss first reads through to
// disk under the same in-flight entry (so concurrent callers share one
// disk load exactly as they share one computation). A disk hit counts as
// diskHits — not as a miss: misses remain "computations started", the
// counter a warm-rejoin e2e asserts stays near zero. A disk miss computes
// as before and, on success, writes the artefact behind to the store.
func (c *memoCache) get(ctx context.Context, key string, compute func(context.Context) (any, error)) (any, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	// Traced requests attribute cache-resolution time (hits and
	// single-flight waits) to the cacheLookup stage; untraced requests pay
	// one nil check and skip the clock reads entirely.
	tr := obs.FromContext(ctx)
	var lookupStart time.Time
	if tr != nil {
		lookupStart = time.Now()
	}
	for {
		c.mu.Lock()
		if e, ok := c.m[key]; ok {
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-done:
				return nil, ctx.Err()
			}
			// Count the hit only once the entry actually served a value, so
			// stats are not inflated by waiters on failed computations.
			if e.err == nil {
				c.mu.Lock()
				c.hits++
				c.mu.Unlock()
				if tr != nil {
					tr.StageSince(obs.StageCacheLookup, lookupStart)
				}
				return e.val, nil
			}
			if isCancellation(e.err) && (ctx == nil || ctx.Err() == nil) {
				// The owner was cancelled, this caller was not: the failed
				// entry is already removed, so try again from scratch.
				continue
			}
			return e.val, e.err
		}
		store := c.store
		e := &memoEntry{key: key, ready: make(chan struct{})}
		e.elem = c.lru.PushFront(e)
		c.m[key] = e
		c.evictLocked()
		c.mu.Unlock()

		fromDisk := false
		if store != nil {
			var diskStart time.Time
			if tr != nil {
				diskStart = time.Now()
			}
			if v, ok := store.Get(key); ok {
				e.val, fromDisk = v, true
			}
			if tr != nil {
				tr.StageSince(obs.StageDiskLoad, diskStart)
			}
		}
		if !fromDisk {
			e.val, e.err = compute(ctx)
		}
		close(e.ready)

		c.mu.Lock()
		cur, present := c.m[key]
		switch {
		case e.err != nil:
			c.misses++
			if present && cur == e {
				c.removeLocked(e)
			}
		default:
			if fromDisk {
				c.diskHits++
			} else {
				c.misses++
			}
			if present && cur == e {
				// Account the now-known size and re-check the byte budget.
				// An entry evicted (or reset away) while in flight is never
				// accounted, so bytes can't be double-counted or leak.
				e.size = c.sizeOf(e.val)
				c.bytes += e.size
				c.evictLocked()
			}
		}
		c.mu.Unlock()
		if !fromDisk && e.err == nil && store != nil {
			store.Put(key, e.val)
		}
		return e.val, e.err
	}
}

// setCapacity reconfigures the bounds and evicts down to them.
func (c *memoCache) setCapacity(entries int, maxBytes int64) {
	if entries < 1 {
		entries = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capEntries = entries
	c.capBytes = maxBytes
	c.evictLocked()
}

func (c *memoCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		DiskHits:  c.diskHits,
		Evictions: c.evictions,
		Entries:   c.lru.Len(),
		Bytes:     c.bytes,
	}
}

// setStore attaches (or, with nil, detaches) the disk layer. The store is
// consulted only for entries inserted after the call.
func (c *memoCache) setStore(s ArtifactStore) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = s
}

func (c *memoCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[string]*memoEntry)
	c.lru.Init()
	c.bytes = 0
	c.hits, c.misses, c.diskHits, c.evictions = 0, 0, 0, 0
}

// approxSize estimates the retained bytes of a cached artefact. It only has
// to be proportionate, not exact: the byte budget is a sizing knob, not an
// allocator.
func approxSize(v any) int64 {
	const overhead = 64
	switch x := v.(type) {
	case *lti.Discrete:
		return overhead + 8*int64(matElems(x.Phi)+matElems(x.Gamma0)+matElems(x.Gamma1)+matElems(x.C))
	case *switching.Curve:
		return overhead + 16*int64(len(x.Samples))
	default:
		return overhead
	}
}

func matElems(m *mat.Matrix) int {
	if m == nil {
		return 0
	}
	return m.Rows() * m.Cols()
}

// CacheStats is a snapshot of the shared derivation cache's counters.
// Hits are served from memory; DiskHits are memory misses answered by the
// attached ArtifactStore without recomputing; Misses are computations
// actually started (a warm replica rejoining its shard from disk keeps
// this near zero).
type CacheStats struct {
	Hits      uint64 `json:"hits" metric:"cache_hits_total" help:"Derivation-cache hits."`
	Misses    uint64 `json:"misses" metric:"cache_misses_total" help:"Derivation-cache misses (computations started)."`
	DiskHits  uint64 `json:"diskHits" metric:"cache_disk_hits_total" help:"Derivation-cache memory misses answered by the persistent store instead of a computation."`
	Evictions uint64 `json:"evictions" metric:"cache_evictions_total" help:"Derivation-cache LRU evictions."`
	Entries   int    `json:"entries" metric:"cache_entries" help:"Derivation-cache current entry count."`
	Bytes     int64  `json:"bytes" metric:"cache_bytes" help:"Derivation-cache approximate retained bytes."`
}

// deriveCache holds discretisations and dwell curves across Derive calls.
// 128 entries comfortably covers a fleet reusing a few dozen plant/timing
// combinations (each application contributes two discretisations and one
// curve) while bounding memory for adversarial workloads. Long-running
// services can retune it with SetDeriveCacheCapacity.
var deriveCache = newMemoCache(128, 0)

// DeriveCacheStats reports the hit/miss/eviction counters and current
// occupancy of the shared derivation cache — useful for verifying that a
// fleet workload actually reuses its plants, and exported by cpsdynd's
// /statsz endpoint.
func DeriveCacheStats() CacheStats { return deriveCache.stats() }

// ResetDeriveCache empties the shared derivation cache and its counters.
func ResetDeriveCache() { deriveCache.reset() }

// SetDeriveCacheCapacity reconfigures the shared derivation cache: entries
// bounds the entry count (clamped to ≥ 1) and maxBytes, when positive,
// bounds the approximate retained bytes. Existing entries beyond the new
// bounds are evicted least-recently-used first; counters are preserved.
func SetDeriveCacheCapacity(entries int, maxBytes int64) {
	deriveCache.setCapacity(entries, maxBytes)
}

// SetDeriveStore attaches a disk-backed persistence layer beneath the
// shared derivation cache (nil detaches it): memory misses read through it
// before computing — counted as DiskHits — and successful computations
// write behind to it. Safe by construction: every cached artefact is
// deterministic in its bit-exact cache key, so a stored record can only
// ever be bit-identical to what a re-derivation would produce. cpsdynd
// wires internal/store here when started with -cache-dir, which is what
// lets a restarted replica rejoin its consistent-hash shard warm.
func SetDeriveStore(s ArtifactStore) { deriveCache.setStore(s) }

// keyFloat appends the exact bit pattern of v, so keys distinguish values
// that differ below formatting precision — including +0 and −0, whose bit
// patterns differ (0x0 vs 0x8000000000000000). That strictness is
// load-bearing: the disk store (internal/store) addresses records by these
// keys, so two inputs share an artefact exactly when their keys are equal,
// and every comparison layered above (appMemo.matches) must be equally
// bit-exact or it would serve a stale value the key discipline would
// recompute. TestCacheKeyDistinguishesSignedZero pins the contract.
func keyFloat(b *strings.Builder, v float64) {
	fmt.Fprintf(b, "%016x;", math.Float64bits(v))
}

func keyMatrix(b *strings.Builder, m *mat.Matrix) {
	if m == nil {
		b.WriteString("nil|")
		return
	}
	fmt.Fprintf(b, "%dx%d:", m.Rows(), m.Cols())
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			keyFloat(b, m.At(i, j))
		}
	}
	b.WriteByte('|')
}

func keyVec(b *strings.Builder, v []float64) {
	fmt.Fprintf(b, "v%d:", len(v))
	for _, x := range v {
		keyFloat(b, x)
	}
	b.WriteByte('|')
}

func keyPoles(b *strings.Builder, ps []complex128) {
	fmt.Fprintf(b, "p%d:", len(ps))
	for _, p := range ps {
		keyFloat(b, real(p))
		keyFloat(b, imag(p))
	}
	b.WriteByte('|')
}

// CacheKey is the canonical derivation-cache key of the application: a
// deterministic string over the exact bit patterns of everything that selects
// the app's cached artefacts — the plant (name and matrices), the timing
// parameters, the threshold and initial state, and the controller design
// (poles or LQR weights). Two applications with equal CacheKeys derive
// through exactly the same cache entries, which makes the key the natural
// consistent-hash seed for partitioning the cache across replicas
// (internal/cluster): route equal keys to one replica and each replica's LRU
// holds a disjoint slice of the fleet's artefacts.
//
// The app Name, FrameID, disturbance period R and Deadline are deliberately
// excluded: none of them reaches a cache entry, so renaming an app or
// retuning its deadline must not move its plant to a cold shard. (The plant
// name does reach the cache entries and is therefore keyed — a caller that
// defaults an omitted plant name from the app name, as the service codec
// does, ties the two together itself; that aliasing is identical on a
// single node, where renaming such an app cools its local cache entries
// just the same.)
func (a *Application) CacheKey() string {
	var b strings.Builder
	b.WriteString("app|")
	if a.Plant != nil {
		b.WriteString(a.Plant.Name)
		b.WriteByte('|')
		keyMatrix(&b, a.Plant.A)
		keyMatrix(&b, a.Plant.B)
		keyMatrix(&b, a.Plant.C)
	}
	keyFloat(&b, a.H)
	keyFloat(&b, a.DelayTT)
	keyFloat(&b, a.DelayET)
	keyFloat(&b, a.Eth)
	keyVec(&b, a.X0)
	keyPoles(&b, a.PolesTT)
	keyPoles(&b, a.PolesET)
	keyMatrix(&b, a.QTT)
	keyMatrix(&b, a.RTT)
	keyMatrix(&b, a.QET)
	keyMatrix(&b, a.RET)
	return b.String()
}

// curveWorkers is the process-wide fan-out width for dwell-curve sampling
// on cache misses. 0 selects runtime.GOMAXPROCS(0) — the tentpole default:
// a single cold derive saturates every core. The sampled curves are
// byte-identical for every width, so the knob never enters a cache key.
var curveWorkers atomic.Int32

// SetCurveSamplingWorkers bounds the per-derivation dwell-curve sampling
// fan-out (switching.SampleCurveOptions.Workers). n ≤ 0 restores the
// default, runtime.GOMAXPROCS; n = 1 forces sequential sampling. Widths
// beyond the int32 backing store clamp to math.MaxInt32 instead of
// wrapping negative (which would silently restore the default).
func SetCurveSamplingWorkers(n int) {
	if n < 0 {
		n = 0
	}
	if n > math.MaxInt32 {
		n = math.MaxInt32
	}
	curveWorkers.Store(int32(n))
}

// CurveSamplingWorkers reports the effective sampling fan-out width.
func CurveSamplingWorkers() int {
	if n := int(curveWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// cachedDiscretize memoises lti.Discretize on (plant, h, d). The plant name
// participates in the key because it is carried into the Discrete.
func cachedDiscretize(ctx context.Context, c *lti.Continuous, h, d float64) (*lti.Discrete, error) {
	var b strings.Builder
	b.WriteString("disc|")
	b.WriteString(c.Name)
	b.WriteByte('|')
	keyMatrix(&b, c.A)
	keyMatrix(&b, c.B)
	keyMatrix(&b, c.C)
	keyFloat(&b, h)
	keyFloat(&b, d)
	v, err := deriveCache.get(ctx, b.String(), func(cctx context.Context) (any, error) {
		// Discretisation is a handful of small matrix exponentials —
		// too cheap to need intra-computation cancellation points.
		defer obs.FromContext(cctx).StageSince(obs.StageDiscretize, time.Now())
		return lti.Discretize(c, h, d)
	})
	if err != nil {
		return nil, err
	}
	return v.(*lti.Discrete), nil
}

// cachedSampleCurve memoises the exhaustive dwell/wait sampling on the
// switched system's dynamics (the name is excluded: the Curve does not carry
// it, so identical dynamics under different names share one sampling; the
// worker count is excluded because the curve is byte-identical either way).
func cachedSampleCurve(ctx context.Context, s *switching.System, horizon int) (*switching.Curve, error) {
	var b strings.Builder
	b.WriteString("curve|")
	keyMatrix(&b, s.A1)
	keyMatrix(&b, s.A2)
	keyVec(&b, s.X0)
	keyFloat(&b, s.Eth)
	keyFloat(&b, s.H)
	fmt.Fprintf(&b, "n%d;h%d", s.NormDims, horizon)
	v, err := deriveCache.get(ctx, b.String(), func(ctx context.Context) (any, error) {
		defer obs.FromContext(ctx).StageSince(obs.StageCurveSample, time.Now())
		return s.SampleCurveWith(switching.SampleCurveOptions{
			Workers: CurveSamplingWorkers(),
			Horizon: horizon,
			Context: ctx,
		})
	})
	if err != nil {
		return nil, err
	}
	return v.(*switching.Curve), nil
}
