package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"cpsdyn/internal/store"
)

// fakeStore is an in-memory ArtifactStore with call counters, for pinning
// the cache↔store contract without touching disk.
type fakeStore struct {
	mu   sync.Mutex
	m    map[string]any
	gets int
	puts int
}

func newFakeStore() *fakeStore { return &fakeStore{m: make(map[string]any)} }

func (f *fakeStore) Get(key string) (any, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	v, ok := f.m[key]
	return v, ok
}

func (f *fakeStore) Put(key string, v any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	f.m[key] = v
}

func (f *fakeStore) putCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.puts
}

// A memory miss answered by the store must count as a disk hit — never as
// a miss — must be accounted in bytes exactly once, and must serve later
// callers as a plain memory hit.
func TestMemoCacheDiskHitAccountedOnce(t *testing.T) {
	fs := newFakeStore()
	fs.m["k"] = "from-disk"
	c := newMemoCache(8, 0)
	c.setStore(fs)
	c.sizeOf = func(any) int64 { return 40 }

	v, err := c.get(context.Background(), "k", func(context.Context) (any, error) {
		t.Error("computed despite a disk record")
		return nil, nil
	})
	if err != nil || v != "from-disk" {
		t.Fatalf("got (%v, %v), want disk value", v, err)
	}
	st := c.stats()
	if st.DiskHits != 1 || st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("after disk hit: %+v, want 1 diskHit / 0 misses / 0 hits", st)
	}
	if st.Entries != 1 || st.Bytes != 40 {
		t.Fatalf("disk-loaded entry accounting: %+v, want 1 entry / 40 bytes", st)
	}
	if fs.putCount() != 0 {
		t.Fatalf("disk-loaded value written back (%d puts)", fs.putCount())
	}
	// Second call: a memory hit, no re-load, bytes unchanged.
	if v, err := c.get(context.Background(), "k", nil); err != nil || v != "from-disk" {
		t.Fatalf("warm got (%v, %v)", v, err)
	}
	st = c.stats()
	if st.Hits != 1 || st.DiskHits != 1 || st.Bytes != 40 {
		t.Fatalf("after warm hit: %+v, want 1 hit / 1 diskHit / 40 bytes", st)
	}
}

// A disk miss computes as before and writes the artefact behind to the
// store; a failed computation writes nothing.
func TestMemoCacheWritesBehindOnFill(t *testing.T) {
	fs := newFakeStore()
	c := newMemoCache(8, 0)
	c.setStore(fs)
	if _, err := c.get(context.Background(), "k", func(context.Context) (any, error) {
		return "computed", nil
	}); err != nil {
		t.Fatal(err)
	}
	if v, ok := fs.m["k"]; !ok || v != "computed" {
		t.Fatalf("store holds %v/%v, want the computed value", v, ok)
	}
	if st := c.stats(); st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v, want 1 miss / 0 diskHits", st)
	}
	if _, err := c.get(context.Background(), "bad", func(context.Context) (any, error) {
		return nil, errors.New("boom")
	}); err == nil {
		t.Fatal("want error")
	}
	if _, ok := fs.m["bad"]; ok {
		t.Fatal("failed computation written to the store")
	}
}

// An entry evicted while its computation is in flight must still serve its
// waiters, and its size must never be accounted — the bytes gauge tracks
// exactly the entries the cache retains.
func TestMemoCacheInFlightEvictionServesWaitersWithoutAccounting(t *testing.T) {
	c := newMemoCache(1, 0)
	c.sizeOf = func(any) int64 { return 40 }
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := c.get(context.Background(), "slow", func(context.Context) (any, error) {
			close(started)
			<-release
			return "slow-value", nil
		})
		if err != nil || v != "slow-value" {
			t.Errorf("evicted in-flight owner got (%v, %v)", v, err)
		}
	}()
	<-started
	// This insert evicts the in-flight "slow" entry (capacity 1, MRU wins).
	if _, err := c.get(context.Background(), "fast", func(context.Context) (any, error) {
		return "fast-value", nil
	}); err != nil {
		t.Fatal(err)
	}
	close(release)
	<-done
	st := c.stats()
	if st.Entries != 1 || st.Bytes != 40 {
		t.Fatalf("after in-flight eviction: %+v, want 1 entry / 40 bytes (no double accounting)", st)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// "slow" was evicted mid-flight: a fresh get recomputes it.
	calls := 0
	if _, err := c.get(context.Background(), "slow", func(context.Context) (any, error) {
		calls++
		return "slow-value", nil
	}); err != nil || calls != 1 {
		t.Fatalf("evicted entry served stale (calls=%d, err=%v)", calls, err)
	}
}

// reset() while a computation is in flight must not strand bytes: the
// completing owner sees its entry gone, skips accounting, and still
// returns its value.
func TestMemoCacheResetMidFlightDoesNotLeakBytes(t *testing.T) {
	c := newMemoCache(8, 0)
	c.sizeOf = func(any) int64 { return 40 }
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := c.get(context.Background(), "k", func(context.Context) (any, error) {
			close(started)
			<-release
			return "v", nil
		})
		if err != nil || v != "v" {
			t.Errorf("owner got (%v, %v)", v, err)
		}
	}()
	<-started
	c.reset()
	close(release)
	<-done
	if st := c.stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after reset with in-flight completion: %+v, want empty", st)
	}
	// The key is genuinely gone: a fresh get recomputes and accounts once.
	calls := 0
	if _, err := c.get(context.Background(), "k", func(context.Context) (any, error) {
		calls++
		return "v2", nil
	}); err != nil || calls != 1 {
		t.Fatalf("post-reset get: calls=%d err=%v", calls, err)
	}
	if st := c.stats(); st.Entries != 1 || st.Bytes != 40 {
		t.Fatalf("post-reset accounting: %+v, want 1 entry / 40 bytes", st)
	}
}

// The headline warm-rejoin property at the core level, against the real
// disk store: derive a fleet, wipe the in-memory cache (the restart), and
// the re-derivation is served from disk — store loads observed, the miss
// counter stays at zero, and the served artefacts are bit-identical.
func TestDeriveWarmRejoinFromDiskStore(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ResetDeriveCache()
	SetDeriveStore(st)
	t.Cleanup(func() {
		SetDeriveStore(nil)
		st.Close()
		ResetDeriveCache()
	})

	cold, err := servoApp("A", 1, 3).DeriveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s := DeriveCacheStats(); s.Misses != 3 || s.DiskHits != 0 {
		t.Fatalf("cold stats = %+v, want 3 misses / 0 diskHits", s)
	}
	st.Flush()
	if s := st.Stats(); s.Stores != 3 {
		t.Fatalf("store stats = %+v, want 3 records (2 discretisations + 1 curve)", s)
	}

	// The restart: the memory cache is empty, the disk store persists.
	ResetDeriveCache()
	warm, err := servoApp("A", 1, 3).DeriveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := DeriveCacheStats()
	if s.Misses != 0 {
		t.Fatalf("warm rejoin recomputed: %+v, want 0 misses", s)
	}
	if s.DiskHits != 3 {
		t.Fatalf("warm rejoin stats = %+v, want 3 diskHits", s)
	}
	if got := st.Stats(); got.Loads != 3 || got.LoadErrors != 0 {
		t.Fatalf("store stats after rejoin = %+v, want 3 loads", got)
	}
	// Disk-loaded artefacts must be bit-identical to the derived ones.
	if !warm.DiscTT.Phi.EqualBits(cold.DiscTT.Phi) ||
		!warm.DiscET.Phi.EqualBits(cold.DiscET.Phi) {
		t.Fatal("disk-loaded discretisation differs from the derived one")
	}
	if len(warm.Curve.Samples) != len(cold.Curve.Samples) {
		t.Fatalf("curve lengths differ: %d vs %d", len(warm.Curve.Samples), len(cold.Curve.Samples))
	}
	for i := range cold.Curve.Samples {
		if math.Float64bits(warm.Curve.Samples[i].Dwell) != math.Float64bits(cold.Curve.Samples[i].Dwell) {
			t.Fatalf("curve sample %d differs bitwise", i)
		}
	}
}

// A result slot's snapshot must be exactly as strict as the cache key:
// flipping a zero field's sign bit is invisible to == but changes CacheKey
// (and the disk record address), so it must invalidate the slot.
// Regression for the +0/−0 aliasing in appSnapshot.matches.
func TestDeriveMemoInvalidatesOnSignedZeroFlip(t *testing.T) {
	app := servoApp("zero", 1, 3)
	app.DelayTT = 0 // +0
	slot := make([]*Derived, 1)
	d1 := deriveSlot(t, slot, app)
	if d2 := deriveSlot(t, slot, app); d2 != d1 {
		t.Fatal("unchanged app re-derived")
	}
	app.DelayTT = math.Copysign(0, -1) // −0: same == class, different bits
	if d3 := deriveSlot(t, slot, app); d3 == d1 {
		t.Fatal("memo served the stale derivation across a +0 → −0 flip")
	}
}

// CacheKey must distinguish +0 from −0 — the disk store addresses records
// by the key, so collapsing them would alias two distinct inputs to one
// record.
func TestCacheKeyDistinguishesSignedZero(t *testing.T) {
	plus := servoApp("A", 1, 3)
	minus := servoApp("A", 1, 3)
	plus.DelayTT = 0
	minus.DelayTT = math.Copysign(0, -1)
	if plus.CacheKey() == minus.CacheKey() {
		t.Fatal("+0 and −0 inputs share a cache key")
	}
}

// Fan-out widths beyond int32 must clamp instead of wrapping negative
// (which silently restored the GOMAXPROCS default).
func TestSetCurveSamplingWorkersClampsToInt32(t *testing.T) {
	defer SetCurveSamplingWorkers(0)
	SetCurveSamplingWorkers(math.MaxInt) // > MaxInt32 on 64-bit platforms
	if got := CurveSamplingWorkers(); got != math.MaxInt32 {
		t.Fatalf("CurveSamplingWorkers() = %d, want clamped %d", got, math.MaxInt32)
	}
	SetCurveSamplingWorkers(math.MaxInt32)
	if got := CurveSamplingWorkers(); got != math.MaxInt32 {
		t.Fatalf("exact boundary: got %d, want %d", got, math.MaxInt32)
	}
	SetCurveSamplingWorkers(-7)
	if got := CurveSamplingWorkers(); got < 1 {
		t.Fatalf("negative width: got %d, want the GOMAXPROCS default", got)
	}
}
