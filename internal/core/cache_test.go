package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// cacheGetter returns a helper that fetches a key and counts computations.
func cacheGetter(t *testing.T, c *memoCache, calls *int) func(key string) {
	return func(key string) {
		t.Helper()
		v, err := c.get(context.Background(), key, func(context.Context) (any, error) { *calls++; return key, nil })
		if err != nil {
			t.Fatal(err)
		}
		if v != key {
			t.Fatalf("got %v, want %v", v, key)
		}
	}
}

func TestMemoCacheEvictsLRU(t *testing.T) {
	c := newMemoCache(2, 0)
	calls := 0
	get := cacheGetter(t, c, &calls)
	get("a")
	get("b")
	get("a") // hit — refreshes "a", making "b" the LRU victim
	get("c") // evicts "b"
	get("a") // still cached under LRU (FIFO would have evicted it)
	get("b") // recomputed
	if calls != 4 {
		t.Fatalf("calls = %d, want 4 (a, b, c, b-again)", calls)
	}
	st := c.stats()
	if st.Hits != 2 || st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 4 misses / 2 evictions", st)
	}
}

// Regression: capacity ≤ 0 used to evict the just-inserted in-flight entry
// (`for len(c.order) > c.cap` with cap = 0), silently breaking single-flight
// semantics. The capacity must clamp to ≥ 1 so the entry being computed
// always survives its own insertion.
func TestMemoCacheClampsNonPositiveCapacity(t *testing.T) {
	for _, capacity := range []int{-5, 0} {
		c := newMemoCache(capacity, 0)
		if c.capEntries != 1 {
			t.Fatalf("newMemoCache(%d) capEntries = %d, want 1", capacity, c.capEntries)
		}
		calls := 0
		get := cacheGetter(t, c, &calls)
		get("k")
		get("k") // must be a hit: the entry survived its own insertion
		if calls != 1 {
			t.Fatalf("cap %d: calls = %d, want 1 (entry evicted itself)", capacity, calls)
		}
		if st := c.stats(); st.Hits != 1 || st.Entries != 1 {
			t.Fatalf("cap %d: stats = %+v, want 1 hit and 1 entry", capacity, st)
		}
	}
}

// Regression companion: even with the minimum capacity, concurrent requests
// for one key must share a single computation.
func TestMemoCacheSingleFlightAtMinCapacity(t *testing.T) {
	c := newMemoCache(0, 0) // clamps to 1
	var mu sync.Mutex
	calls := 0
	release := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.get(context.Background(), "k", func(context.Context) (any, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-release
				return "v", nil
			})
			if err != nil || v != "v" {
				t.Errorf("got %v, %v", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (single flight)", calls)
	}
}

func TestMemoCacheByteBudget(t *testing.T) {
	c := newMemoCache(1000, 100)
	c.sizeOf = func(any) int64 { return 40 }
	calls := 0
	get := cacheGetter(t, c, &calls)
	get("a")
	get("b") // 80 bytes cached
	get("c") // 120 bytes → evicts "a" back down to 80
	st := c.stats()
	if st.Entries != 2 || st.Bytes != 80 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 80 bytes / 1 eviction", st)
	}
	get("b") // hit
	get("a") // recomputed, evicts "c" (LRU)
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
}

// A single value larger than the whole byte budget must still be cached
// (the MRU entry is never evicted), not spin the evictor.
func TestMemoCacheOversizedValueSurvives(t *testing.T) {
	c := newMemoCache(8, 10)
	c.sizeOf = func(any) int64 { return 1000 }
	calls := 0
	get := cacheGetter(t, c, &calls)
	get("big")
	get("big")
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (oversized value evicted itself)", calls)
	}
	if st := c.stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

func TestMemoCacheSetCapacityShrinks(t *testing.T) {
	c := newMemoCache(8, 0)
	calls := 0
	get := cacheGetter(t, c, &calls)
	for i := 0; i < 5; i++ {
		get(fmt.Sprintf("k%d", i))
	}
	c.setCapacity(2, 0)
	st := c.stats()
	if st.Entries != 2 || st.Evictions != 3 {
		t.Fatalf("after shrink stats = %+v, want 2 entries / 3 evictions", st)
	}
	get("k4") // most recent survivor — must still be cached
	if calls != 5 {
		t.Fatalf("calls = %d, want 5 (k4 was evicted by shrink)", calls)
	}
	c.setCapacity(-3, 0) // clamps, keeps the MRU entry
	if st := c.stats(); st.Entries != 1 {
		t.Fatalf("entries after clamp-shrink = %d, want 1", st.Entries)
	}
}

func TestMemoCacheDoesNotCacheErrors(t *testing.T) {
	c := newMemoCache(4, 0)
	calls := 0
	fail := func(context.Context) (any, error) { calls++; return nil, errors.New("boom") }
	if _, err := c.get(context.Background(), "k", fail); err == nil {
		t.Fatal("want error")
	}
	if _, err := c.get(context.Background(), "k", fail); err == nil {
		t.Fatal("want error on retry")
	}
	if calls != 2 {
		t.Fatalf("failed computation was cached (calls = %d)", calls)
	}
	if st := c.stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("failed entries retained: %+v", st)
	}
}

// A cancelled owner must not poison the single-flight entry: the failed
// computation is dropped and a waiter whose own context is live retries,
// becoming the new owner.
func TestMemoCacheCancelledOwnerDoesNotPoison(t *testing.T) {
	c := newMemoCache(4, 0)
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerStarted := make(chan struct{})
	ownerResult := make(chan error, 1)
	go func() {
		_, err := c.get(ownerCtx, "k", func(ctx context.Context) (any, error) {
			close(ownerStarted)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		ownerResult <- err
	}()
	<-ownerStarted
	waiterDone := make(chan struct{})
	var waiterVal any
	var waiterErr error
	go func() {
		defer close(waiterDone)
		waiterVal, waiterErr = c.get(context.Background(), "k", func(context.Context) (any, error) {
			return "recomputed", nil
		})
	}()
	cancelOwner()
	if err := <-ownerResult; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	<-waiterDone
	if waiterErr != nil || waiterVal != "recomputed" {
		t.Fatalf("waiter got (%v, %v), want recomputed value", waiterVal, waiterErr)
	}
	st := c.stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (the recomputed value)", st.Entries)
	}
	// And the retried value is served from cache now.
	v, err := c.get(context.Background(), "k", func(context.Context) (any, error) {
		t.Error("value recomputed despite being cached")
		return nil, nil
	})
	if err != nil || v != "recomputed" {
		t.Fatalf("follow-up got (%v, %v)", v, err)
	}
}

// A waiter whose own context expires stops waiting immediately instead of
// blocking on a computation that may outlive its budget.
func TestMemoCacheWaiterContextExpiry(t *testing.T) {
	c := newMemoCache(4, 0)
	started := make(chan struct{})
	release := make(chan struct{})
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
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
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.get(ctx, "k", func(context.Context) (any, error) {
		t.Error("expired waiter started a computation")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
	<-ownerDone
}

func TestSetDeriveCacheCapacityEvictsShared(t *testing.T) {
	ResetDeriveCache()
	defer func() {
		ResetDeriveCache()
		SetDeriveCacheCapacity(128, 0)
	}()
	if _, err := servoApp("A", 1, 3).DeriveContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := DeriveCacheStats()
	if before.Entries != 4 {
		t.Fatalf("entries = %d, want 4 (2 discretisations + 1 curve + 1 bundle)", before.Entries)
	}
	SetDeriveCacheCapacity(1, 0)
	after := DeriveCacheStats()
	if after.Entries != 1 || after.Evictions != before.Evictions+3 {
		t.Fatalf("after shrink: %+v (before: %+v)", after, before)
	}
}

// CacheKey is what the cluster layer shards on: it must be stable under the
// fields that never reach a cache entry (name, frame ID, r, deadline) and
// change with every field that does.
func TestCacheKeyTracksCachedArtefactsOnly(t *testing.T) {
	base := servoApp("A", 1, 3)
	twin := servoApp("B", 9, 7) // different name/frame/deadline, same dynamics
	twin.R = 20
	if base.CacheKey() != twin.CacheKey() {
		t.Fatal("renaming/retiming an app moved its cache key")
	}
	mutations := []struct {
		name   string
		mutate func(*Application)
	}{
		{"plant name", func(a *Application) {
			p := *a.Plant
			p.Name = "other"
			a.Plant = &p
		}},
		{"plant entry", func(a *Application) {
			p := *a.Plant
			p.A = p.A.Clone()
			p.A.Set(0, 0, p.A.At(0, 0)+1e-12)
			a.Plant = &p
		}},
		{"h", func(a *Application) { a.H = 0.021 }},
		{"delayTT", func(a *Application) { a.DelayTT = 0.003 }},
		{"delayET", func(a *Application) { a.DelayET = 0.019 }},
		{"eth", func(a *Application) { a.Eth = 0.2 }},
		{"x0", func(a *Application) { a.X0 = []float64{0, 2.5} }},
		{"polesTT", func(a *Application) { a.PolesTT = []complex128{0.81, 0.70, 0.05} }},
		{"polesET nil (LQR default)", func(a *Application) { a.PolesET = nil }},
	}
	for _, m := range mutations {
		app := servoApp("A", 1, 3)
		m.mutate(app)
		if app.CacheKey() == base.CacheKey() {
			t.Errorf("%s: mutation did not change the cache key", m.name)
		}
	}
}
