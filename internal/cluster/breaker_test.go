package cluster

import (
	"testing"
	"time"
)

// openBreaker returns a breaker on a controllable clock, already tripped
// open (threshold consecutive failures recorded at time zero). The basic
// open/recover and single-probe paths live in ring_test.go; this file pins
// the half-open transition edges around them.
func openBreaker(t *testing.T, threshold int, cooldown time.Duration) (*breaker, *time.Time) {
	t.Helper()
	b := newBreaker(threshold, cooldown)
	clock := time.Unix(0, 0)
	b.now = func() time.Time { return clock }
	for i := 0; i < threshold; i++ {
		b.failure()
	}
	if !b.open() {
		t.Fatalf("breaker not open after %d consecutive failures", threshold)
	}
	return b, &clock
}

// A failed probe re-opens the breaker for a full fresh cooldown measured
// from the failure, not the remainder of the original window.
func TestBreakerProbeFailureRestartsFullCooldown(t *testing.T) {
	b, clock := openBreaker(t, 3, 5*time.Second)
	*clock = clock.Add(10 * time.Second) // well past the original window
	if !b.allow() {
		t.Fatal("no probe admitted after the cooldown")
	}
	b.failure()
	// 4 s into the fresh cooldown: still open. The original openUntil of
	// t=5 s has long passed, so holding here means the failure re-armed it.
	*clock = clock.Add(4 * time.Second)
	if b.allow() {
		t.Fatal("breaker admitted traffic 4s into the fresh 5s cooldown")
	}
	if !b.open() {
		t.Fatal("stats report the breaker closed during the fresh cooldown")
	}
	*clock = clock.Add(time.Second + time.Millisecond)
	if !b.allow() {
		t.Fatal("no second probe after the fresh cooldown elapsed")
	}
}

// An abandoned probe hands the slot to the next caller without judging the
// peer: the state stays half-open — one replacement probe is admitted, a
// second caller is not — and open() (defined as "currently blocks new
// traffic") tracks that: false while the slot is free, true again while
// the replacement probe is in flight.
func TestBreakerAbandonStaysHalfOpen(t *testing.T) {
	b, clock := openBreaker(t, 3, 5*time.Second)
	*clock = clock.Add(6 * time.Second)
	if !b.allow() {
		t.Fatal("no probe admitted after the cooldown")
	}
	b.abandon()
	if b.open() {
		t.Fatal("open() true with the probe slot free: the next caller would in fact be admitted")
	}
	if !b.allow() {
		t.Fatal("no replacement probe admitted after abandon")
	}
	if b.allow() {
		t.Fatal("two probes in flight after abandon")
	}
	if !b.open() {
		t.Fatal("open() false while the replacement probe holds the slot")
	}
	// The replacement probe failing must re-arm a full cooldown — abandon
	// must not have cleared the consecutive-failure count.
	b.failure()
	*clock = clock.Add(4 * time.Second)
	if b.allow() {
		t.Fatal("failed replacement probe did not re-open for a fresh cooldown")
	}
}

// Failures below the threshold, or broken up by a success, never open the
// breaker: it counts consecutive failures, not a rate.
func TestBreakerInterleavedSuccessKeepsClosed(t *testing.T) {
	b := newBreaker(3, 5*time.Second)
	clock := time.Unix(0, 0)
	b.now = func() time.Time { return clock }
	for round := 0; round < 5; round++ {
		b.failure()
		b.failure()
		b.success()
	}
	if b.open() || !b.allow() {
		t.Fatal("breaker opened on interleaved failures below the threshold")
	}
}

// A gateway's peers get the fixed breaker: open at the third consecutive
// failure, for 5 s.
func TestBreakerDefaults(t *testing.T) {
	g, err := New(Config{Peers: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	b := g.peers[0].brk
	if b.threshold != 3 || b.cooldown != 5*time.Second {
		t.Fatalf("defaults = (%d, %v), want (3, 5s)", b.threshold, b.cooldown)
	}
	clock := time.Unix(0, 0)
	b.now = func() time.Time { return clock }
	b.failure()
	b.failure()
	if b.open() {
		t.Fatal("default breaker open below its threshold")
	}
	b.failure()
	if !b.open() {
		t.Fatal("default breaker not open at its threshold")
	}
	clock = clock.Add(5*time.Second + time.Millisecond)
	if !b.allow() {
		t.Fatal("default cooldown did not elapse after 5s")
	}
}
