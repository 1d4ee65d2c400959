package cluster

import (
	"fmt"
	"testing"
	"time"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("app|plant%d|matrix-bits-%d|", i, i*7)
	}
	return keys
}

// The mapping is a pure function of the peer SET: construction order must
// not matter, and rebuilding the ring must reproduce it exactly. This is the
// cross-process determinism the cache partitioning depends on — two gateways
// in front of the same replicas have to agree on every key's owner.
func TestRingDeterministicAcrossConstructionOrder(t *testing.T) {
	keys := ringKeys(2000)
	a, err := NewRing([]string{"h1:8700", "h2:8700", "h3:8700", "h4:8700"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"h4:8700", "h2:8700", "h1:8700", "h3:8700"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if ao, bo := a.Owner(k), b.Owner(k); ao != bo {
			t.Fatalf("key %q: owner %q vs %q across construction orders", k, ao, bo)
		}
	}
}

// The concrete mapping is pinned for a handful of keys. FNV-1a's constants
// are fixed by specification, so this guards the only thing a unit test can:
// that no refactor silently changes the hash or tie-breaking and strands
// every replica's warm cache after a rolling restart.
func TestRingPinnedMapping(t *testing.T) {
	r, err := NewRing([]string{"replica-a", "replica-b", "replica-c"})
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]string{
		"app|servo|":    "replica-c",
		"app|heading|":  "replica-c",
		"app|arm|":      "replica-b",
		"app|plant-x|":  "replica-c",
		"app|plant-42|": "replica-c",
	}
	for key, want := range pinned {
		if got := r.Owner(key); got != want {
			t.Errorf("Owner(%q) = %q, want pinned %q", key, got, want)
		}
	}
}

// Removing one peer must strand only that peer's keys: every key owned by a
// survivor keeps its owner (its replica cache stays warm), and the moved
// fraction is ~1/N, not a full reshuffle.
func TestRingRebalanceMovesOnlyVictimKeys(t *testing.T) {
	peers := []string{"h1:8700", "h2:8700", "h3:8700", "h4:8700", "h5:8700"}
	before, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	const victim = "h3:8700"
	var survivors []string
	for _, p := range peers {
		if p != victim {
			survivors = append(survivors, p)
		}
	}
	after, err := NewRing(survivors)
	if err != nil {
		t.Fatal(err)
	}
	keys := ringKeys(10000)
	moved := 0
	for _, k := range keys {
		was, is := before.Owner(k), after.Owner(k)
		if was == victim {
			moved++
			continue
		}
		if was != is {
			t.Fatalf("key %q moved %q → %q although its owner survived", k, was, is)
		}
	}
	// The victim owned ~1/5 of the space; virtual nodes keep the split
	// within loose bounds of uniform.
	frac := float64(moved) / float64(len(keys))
	if frac < 0.08 || frac > 0.35 {
		t.Fatalf("removing 1 of 5 peers moved %.1f%% of keys, want ≈ 20%%", 100*frac)
	}
}

// With virtual nodes, every peer owns a non-trivial share of the space.
func TestRingDistributionRoughlyUniform(t *testing.T) {
	peers := []string{"h1:8700", "h2:8700", "h3:8700"}
	r, err := NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	keys := ringKeys(9000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	for _, p := range peers {
		frac := float64(counts[p]) / float64(len(keys))
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("peer %s owns %.1f%% of keys, want ≈ 33%%", p, 100*frac)
		}
	}
}

func TestRingRejectsBadPeerSets(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty peer set accepted")
	}
	if _, err := NewRing([]string{"h1", "h2", "h1"}); err == nil {
		t.Error("duplicate peer accepted")
	}
	r, err := NewRing([]string{"only"})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Owner("anything"); got != "only" {
		t.Fatalf("single-peer ring routed to %q", got)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	b := newBreaker(3, 5*time.Second)
	clock := time.Unix(0, 0)
	b.now = func() time.Time { return clock }

	for i := 0; i < 3; i++ {
		if !b.allow() {
			t.Fatalf("breaker open after %d failures, threshold is 3", i)
		}
		b.failure()
	}
	if b.allow() || !b.open() {
		t.Fatal("breaker not open after 3 consecutive failures")
	}
	clock = clock.Add(6 * time.Second)
	if !b.allow() {
		t.Fatal("breaker still closed to the half-open probe after the cooldown")
	}
	// The half-open probe fails: open again for a full cooldown.
	b.failure()
	if b.allow() {
		t.Fatal("breaker closed after a failed half-open probe")
	}
	clock = clock.Add(6 * time.Second)
	if !b.allow() {
		t.Fatal("no second half-open probe")
	}
	b.success()
	if !b.allow() || b.open() {
		t.Fatal("breaker not closed by a successful probe")
	}
	for i := 0; i < 2; i++ {
		b.failure()
	}
	if !b.allow() {
		t.Fatal("success did not reset the consecutive-failure count")
	}
}

// Half-open admits exactly one probe: while it is in flight every other
// caller keeps falling back, so a slow probe against a still-dead peer
// cannot stall a worker pool for a full peer timeout each.
func TestBreakerHalfOpenAdmitsSingleProbe(t *testing.T) {
	b := newBreaker(3, 5*time.Second)
	clock := time.Unix(0, 0)
	b.now = func() time.Time { return clock }

	for i := 0; i < 3; i++ {
		b.failure()
	}
	clock = clock.Add(6 * time.Second)
	if !b.allow() {
		t.Fatal("no half-open probe after the cooldown")
	}
	for i := 0; i < 4; i++ {
		if b.allow() {
			t.Fatalf("caller %d admitted while the probe is still in flight", i)
		}
	}
	if !b.open() {
		t.Fatal("stats report the breaker closed while it holds traffic for the probe")
	}
	b.success()
	if !b.allow() || !b.allow() {
		t.Fatal("successful probe did not reopen traffic for everyone")
	}
}

// A probe abandoned mid-flight (the caller's context expired, not the
// peer) must release the half-open slot, or the breaker wedges open
// forever: success and failure are only reachable after an admitted
// exchange.
func TestBreakerAbandonedProbeReleasesSlot(t *testing.T) {
	b := newBreaker(3, 5*time.Second)
	clock := time.Unix(0, 0)
	b.now = func() time.Time { return clock }

	for i := 0; i < 3; i++ {
		b.failure()
	}
	clock = clock.Add(6 * time.Second)
	if !b.allow() {
		t.Fatal("no half-open probe after the cooldown")
	}
	b.abandon()
	if !b.allow() {
		t.Fatal("abandoning the probe did not free the slot for the next caller")
	}
	b.success()
	if !b.allow() {
		t.Fatal("breaker did not close after the second probe succeeded")
	}
}
