package cluster

import (
	"sync"
	"time"
)

// breaker is a consecutive-failure circuit breaker guarding one peer. After
// threshold failures in a row the breaker opens for cooldown: allow()
// answers false, so the gateway routes that peer's rows to local fallback
// without burning a dial timeout per row. Once the cooldown passes, a single
// probe is let through (half-open); its failure re-opens the breaker for
// another cooldown, its success closes it.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests

	mu        sync.Mutex
	fails     int
	openUntil time.Time
	probing   bool // a half-open probe is in flight; hold further traffic
}

// newBreaker opens after threshold consecutive failures, for cooldown; both
// must be positive. A gateway's peers use breakerThreshold and
// breakerCooldown.
func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether a request may be sent to the peer now. In the open
// state it flips to half-open once the cooldown has passed and admits
// exactly one probe: concurrent callers keep falling back until that
// probe's success or failure settles the state — a slow probe (one that
// has to wait out the whole peer timeout) must not let every worker pile
// onto a peer that is still dead.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < b.threshold {
		return true
	}
	if b.now().Before(b.openUntil) || b.probing {
		return false
	}
	b.probing = true
	return true
}

// success closes the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	b.fails = 0
	b.probing = false
	b.mu.Unlock()
}

// failure records one failed exchange, opening the breaker at the threshold
// (a failed half-open probe re-opens it for a fresh cooldown).
func (b *breaker) failure() {
	b.mu.Lock()
	b.probing = false
	b.fails++
	if b.fails >= b.threshold {
		b.openUntil = b.now().Add(b.cooldown)
	}
	b.mu.Unlock()
}

// abandon releases a half-open probe slot without judging the peer: the
// exchange ended because the caller's context expired, which says nothing
// about the peer's health. Without this, a probe abandoned mid-flight
// would leave probing set forever — success and failure are only reachable
// after an admitted exchange — wedging the breaker open for good.
func (b *breaker) abandon() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// open reports whether the breaker currently blocks new traffic (for
// stats; it does not flip half-open).
func (b *breaker) open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails >= b.threshold && (b.now().Before(b.openUntil) || b.probing)
}
