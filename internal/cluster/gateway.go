package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cpsdyn/internal/obs"
)

// Config tunes a Gateway. Peers is required; the zero value of everything
// else selects sensible defaults.
type Config struct {
	// Peers are the replica addresses, e.g. "10.0.0.2:8700" or a full URL.
	// The configured string is the peer's ring identity verbatim, so every
	// gateway of a cluster must spell a peer the same way.
	Peers []string
	// Timeout bounds one row's whole exchange — for the first row that
	// includes the dial — before the peer is declared slow and the row
	// falls back to local computation (≤ 0 selects 10 s).
	Timeout time.Duration
	// FailThreshold consecutive failures open a peer's circuit breaker
	// (≤ 0 selects 3); Cooldown is how long it stays open (≤ 0 selects 5 s).
	FailThreshold int
	Cooldown      time.Duration
}

// peerPath is the streaming endpoint a gateway opens on each replica.
const peerPath = "/v1/derive/stream"

// Stats is the gateway's /statsz snapshot.
type Stats struct {
	Peers         []PeerStats `json:"peers" metric:"peers" help:"Replica peers configured in sharding-gateway mode."`
	PeerRows      uint64      `json:"peerRows" metric:"peer_rows_total" help:"Derive rows answered by replica peers."`
	PeerFallbacks uint64      `json:"peerFallbacks" metric:"peer_fallbacks_total" help:"Derive rows computed locally because a peer was down or slow."`
}

// Gateway is the process-wide sharding state of a cpsdynd gateway: the
// consistent-hash ring, the peer set with circuit breakers, and the traffic
// counters. Per-request fan-out state lives in Sessions. Safe for concurrent
// use.
type Gateway struct {
	ring    *Ring
	byName  map[string]*Peer
	peers   []*Peer // ring-canonical order, for stable stats
	client  *http.Client
	timeout time.Duration

	rows      atomic.Uint64
	fallbacks atomic.Uint64
}

// New builds the gateway: one ring node and one Peer per configured address.
// Addresses without a scheme get "http://"; the configured string (not the
// resolved URL) is the ring identity.
func New(cfg Config) (*Gateway, error) {
	ring, err := NewRing(cfg.Peers)
	if err != nil {
		return nil, err
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	g := &Gateway{
		ring:   ring,
		byName: make(map[string]*Peer, len(cfg.Peers)),
		// Sub-streams are long-lived, so the client sets no overall
		// timeout; Timeout bounds each row instead.
		client:  &http.Client{},
		timeout: timeout,
	}
	for _, name := range ring.Peers() {
		base := name
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		u, err := url.Parse(base)
		if err != nil || u.Host == "" {
			return nil, errors.Join(err, errors.New("cluster: peer "+name+" is not host:port or a URL"))
		}
		p := &Peer{
			name: name,
			url:  strings.TrimRight(base, "/") + peerPath,
			brk:  newBreaker(cfg.FailThreshold, cfg.Cooldown),
		}
		g.byName[name] = p
		g.peers = append(g.peers, p)
	}
	return g, nil
}

// Stats snapshots the gateway counters and per-peer health.
func (g *Gateway) Stats() Stats {
	st := Stats{
		Peers:         make([]PeerStats, len(g.peers)),
		PeerRows:      g.rows.Load(),
		PeerFallbacks: g.fallbacks.Load(),
	}
	for i, p := range g.peers {
		st.Peers[i] = PeerStats{
			Name:     p.name,
			Down:     p.brk.open(),
			Rows:     p.rows.Load(),
			Failures: p.failures.Load(),
		}
	}
	return st
}

// Session is one incoming request's fan-out state: at most one streaming
// sub-request per peer, opened lazily on the first row routed there and
// ended by Close. maxInFlight (the caller's worker/window bound) caps how
// many rows can await a single peer at once. Sessions are safe for
// concurrent Do calls.
type Session struct {
	g      *Gateway
	ctx    context.Context
	cancel context.CancelFunc
	cap    int
	trace  string // request's trace ID, forwarded on every sub-stream
	slots  map[*Peer]*sessionSlot
}

type sessionSlot struct {
	mu sync.Mutex
	st *peerStream
}

// Session opens a fan-out session. ctx governs every sub-stream's life;
// when it carries a trace, the trace's ID rides the obs.TraceHeader of
// every sub-stream so each replica records its side of the request as a
// child span.
func (g *Gateway) Session(ctx context.Context, maxInFlight int) *Session {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Session{
		g:      g,
		ctx:    sctx,
		cancel: cancel,
		cap:    maxInFlight + 1, // roundTrip pushes before writing; keep slack
		slots:  make(map[*Peer]*sessionSlot, len(g.peers)),
	}
	if tr := obs.FromContext(ctx); tr != nil {
		s.trace = tr.ID
	}
	for _, p := range g.peers {
		s.slots[p] = &sessionSlot{}
	}
	return s
}

// Close ends every sub-stream. While the session's context is live — the
// request ended normally — each live sub-stream is half-closed, and Close
// waits, at most the peer timeout, until every replica has ended its
// response. A replica thus books its sub-stream as complete, with every
// row it read answered, and has recorded its span before the gateway
// answers. A cancelled session tears its sub-streams down at once.
func (s *Session) Close() {
	var live []*peerStream
	for _, slot := range s.slots {
		slot.mu.Lock()
		if slot.st != nil && slot.st.alive() {
			live = append(live, slot.st)
		}
		slot.mu.Unlock()
	}
	if s.ctx.Err() == nil {
		for _, st := range live {
			st.closeSend()
		}
		deadline := time.After(s.g.timeout)
	wait:
		for _, st := range live {
			select {
			case <-st.dead:
			case <-deadline:
				break wait
			}
		}
	}
	for _, st := range live {
		st.fail(errStreamDead)
	}
	s.cancel()
}

// stream returns the live sub-stream for p, opening (or reopening) one if
// needed. Opening never blocks — the dial runs in the background and its
// failure surfaces through the first roundTrip — and only p's slot is
// locked, so one peer never stalls rows bound for the others. A stream
// death charges the peer's breaker exactly once for the event, however
// many rows it strands.
func (s *Session) stream(p *Peer) *peerStream {
	slot := s.slots[p]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.st == nil || !slot.st.alive() {
		slot.st = openStream(s.ctx, s.g.client, p, s.cap, s.trace, func(error) {
			p.brk.failure()
			p.failures.Add(1)
		})
	}
	return slot.st
}

// Do routes one NDJSON request line to the replica owning key and returns
// the replica's raw response row (the caller re-indexes it). A non-nil
// accept validates the row before the exchange settles: rejecting it is a
// protocol breach charged against the peer — consecutive rejections open
// its breaker — and the row falls back like any peer failure.
//
// ok == false means the caller must compute the row locally: the owner's
// circuit is open, the sub-stream could not be opened, the peer's answer
// failed, timed out or was rejected — every such fallback is counted. A
// ctx expiry also reports ok == false but is not charged against the peer.
func (s *Session) Do(ctx context.Context, key string, line []byte, accept func([]byte) bool) (row []byte, ok bool) {
	p := s.g.byName[s.g.ring.Owner(key)]
	if !p.brk.allow() {
		s.g.fallbacks.Add(1)
		return nil, false
	}
	start := time.Now()
	row, err := s.stream(p).roundTrip(ctx, line, s.g.timeout)
	switch {
	case err == nil && (accept == nil || accept(row)):
		// Only settled exchanges enter the RTT histogram: a timed-out row's
		// duration is the watchdog bound, which would only echo the
		// -peer-timeout flag back as data.
		obs.PeerRTTLatency.Since(start)
		obs.FromContext(ctx).StageSince(obs.StagePeerRoundTrip, start)
		p.brk.success()
		p.rows.Add(1)
		s.g.rows.Add(1)
		return row, true
	case err == nil:
		// The transport delivered, but the caller rejected the row: the
		// peer is speaking the wrong protocol, which is its failure.
		p.brk.failure()
		p.failures.Add(1)
	case ctx.Err() != nil:
		// The caller gave up; if this exchange held the half-open probe
		// slot, release it undecided or the breaker stays wedged open.
		p.brk.abandon()
	default:
		// A stream-level failure: the teardown already charged the
		// breaker once for the event, so this row only counts its own
		// fallback.
	}
	s.g.fallbacks.Add(1)
	return nil, false
}
