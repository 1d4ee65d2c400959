package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cpsdyn/internal/obs"
)

// Peer is one remote replica: its configured name (the ring identity), its
// resolved streaming URL, process-wide health (circuit breaker) and traffic
// counters. Sub-streams to the peer are per-Session; the Peer itself only
// carries the state that must survive across requests.
type Peer struct {
	name string // as configured, e.g. "10.0.0.2:8700" — the ring node ID
	url  string // resolved stream URL, e.g. "http://10.0.0.2:8700/v1/derive/stream"

	brk      *breaker
	rows     atomic.Uint64 // rows this peer answered
	failures atomic.Uint64 // failed exchanges (dial, timeout, stream death)
}

// PeerStats is one peer's health snapshot for /statsz. /metrics sums the
// tagged fields over all peers; Rows is JSON-only, since its sum is
// Stats.PeerRows.
type PeerStats struct {
	Name     string `json:"name"`
	Down     bool   `json:"down" metric:"peers_down" help:"Peers whose circuit breaker is currently open."`
	Rows     uint64 `json:"rows" metric:"-"`
	Failures uint64 `json:"failures" metric:"peer_failures_total" help:"Failed peer calls summed over all peers (each failure trips the breaker closer to open)."`
}

// errStreamDead reports a sub-stream torn down by its session's Close.
var errStreamDead = errors.New("cluster: peer stream closed")

// HopHeader marks a gateway's sub-requests. A gateway that receives a
// streaming request already carrying it serves the request single-node
// instead of re-sharding, so a peer list that (mis)includes the gateway's
// own address — or another gateway — degrades to one extra hop rather than
// recursing until the in-flight slots run out.
const HopHeader = "Cpsdyn-Gateway-Hop"

// peerStream is one persistent NDJSON sub-request to a peer: request lines
// go out through a pipe (so the HTTP body streams for as long as the session
// lives) and response rows come back in send order — the replica emits rows
// in its input order — so a FIFO of pending cells matches each arriving row
// to its waiter.
//
// The dial runs in the background: an HTTP server does not flush its
// response headers until the first result row, and that first row needs a
// request line first, so waiting for the response before sending would
// deadlock. Lines flow into the pipe immediately; a dial or status failure
// tears the stream down and every waiter falls back.
type peerStream struct {
	pw     *io.PipeWriter
	ctx    context.Context // the stream's own life; consulted before blaming the peer
	cancel context.CancelFunc
	onFail func(error) // charges the peer once per stream-death event

	sendMu  sync.Mutex
	pending chan *pendingRow

	closeOnce sync.Once
	dead      chan struct{} // closed by fail(); err is set before that
	err       error
	ending    atomic.Bool // closeSend ran: the response's end is expected
}

type pendingRow struct {
	done chan []byte // capacity 1: the reader never blocks on a gone waiter
}

// openStream starts the sub-request and returns immediately; rows can be
// sent at once. ctx bounds the whole stream's life. Failures (dial, non-200
// status, response EOF) surface through the stream's dead channel to every
// in-flight and future roundTrip; onFail is invoked exactly once per
// stream-death event (unless the cause is the session's own teardown), so
// the peer's circuit breaker sees one failure per event no matter how many
// rows were in flight — a single slow exchange must not instantly burn
// through the whole consecutive-failure threshold.
func openStream(ctx context.Context, client *http.Client, p *Peer, maxPending int, trace string, onFail func(error)) *peerStream {
	pr, pw := io.Pipe()
	sctx, cancel := context.WithCancel(ctx)
	st := &peerStream{
		pw:      pw,
		ctx:     sctx,
		cancel:  cancel,
		onFail:  onFail,
		pending: make(chan *pendingRow, maxPending),
		dead:    make(chan struct{}),
	}
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, p.url, pr)
	if err != nil {
		st.fail(fmt.Errorf("cluster: peer %s: %w", p.name, err))
		return st
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(HopHeader, "1")
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	//cpsdyn:detached bounded by sctx: cancelling it aborts client.Do and poisons the pipe, and fail() closes dead so every waiter returns
	go func() {
		resp, err := client.Do(req)
		if err != nil {
			st.fail(fmt.Errorf("cluster: peer %s: %w", p.name, err))
			return
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			st.fail(fmt.Errorf("cluster: peer %s: stream status %d: %s",
				p.name, resp.StatusCode, bytes.TrimSpace(body)))
			return
		}
		st.read(resp.Body)
	}()
	return st
}

// read walks response rows and resolves pending cells in FIFO order. Any
// protocol breach — a row with no waiter, a terminal index −1 row (the
// replica's budget killed the stream), a scanner failure or plain EOF —
// tears the stream down; fail() wakes every waiter.
func (st *peerStream) read(body io.ReadCloser) {
	defer body.Close()
	sc := bufio.NewScanner(body)
	// Rows are a few hundred bytes: start small, let the scanner grow.
	sc.Buffer(make([]byte, 0, 4<<10), 8<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var head struct {
			Index  int             `json:"index"`
			Result json.RawMessage `json:"result"`
			Error  json.RawMessage `json:"error"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			st.fail(fmt.Errorf("cluster: malformed peer row %.128q: %w", line, err))
			return
		}
		if head.Index < 0 {
			st.fail(fmt.Errorf("cluster: peer killed the stream: %.256s", line))
			return
		}
		if head.Result == nil && head.Error == nil {
			// A row with neither payload nor failure is not the replica
			// protocol (a non-cpsdynd process answering on the peer port,
			// say). Tearing the stream down routes the waiter to local
			// fallback and charges the peer's breaker — silently resolving
			// the cell would count garbage as a success.
			st.fail(fmt.Errorf("cluster: peer row carries neither result nor error: %.128q", line))
			return
		}
		select {
		case cell := <-st.pending:
			cell.done <- append([]byte(nil), line...)
		default:
			st.fail(fmt.Errorf("cluster: peer sent an unsolicited row %.128q", line))
			return
		}
	}
	if err := sc.Err(); err != nil {
		st.fail(fmt.Errorf("cluster: reading peer stream: %w", err))
		return
	}
	st.fail(errors.New("cluster: peer stream ended")) // EOF with rows possibly pending
}

// fail tears the stream down exactly once: it records the cause, charges
// the peer — unless the session is closing (the response ending after
// closeSend is the expected end, not a failure) or the caller's context
// killed the stream (ending a request is not peer misbehaviour; the ctx
// check runs before the teardown cancels the stream's own context) — then
// wakes every current and future waiter via dead, aborts the HTTP exchange
// and unblocks any in-flight pipe write.
func (st *peerStream) fail(err error) {
	st.closeOnce.Do(func() {
		st.err = err
		callerKilled := errors.Is(err, errStreamDead) || st.ending.Load() ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
			st.ctx.Err() != nil
		if st.onFail != nil && !callerKilled {
			st.onFail(err)
		}
		close(st.dead)
		st.cancel()
		st.pw.CloseWithError(err)
	})
}

// closeSend half-closes the sub-request: the replica reads a clean EOF,
// finishes its stream and ends its response, which the reader then sees
// as the stream's expected end.
func (st *peerStream) closeSend() {
	st.ending.Store(true)
	st.pw.Close()
}

// alive reports whether the stream can still carry rows.
func (st *peerStream) alive() bool {
	select {
	case <-st.dead:
		return false
	default:
		return true
	}
}

// roundTrip sends one request line and waits for its response row. The FIFO
// pending queue is pushed before the first byte of the line is written
// (under the send lock), so the reader can never see a row before its cell.
// timeout covers the whole exchange — including a pipe write stalled on a
// wedged peer — via a watchdog that tears the stream down: rows queued
// behind a stalled one would be exactly as late, so the session's later rows
// reopen or fall back instead of waiting in line.
//
//cpsdyn:lock-across the pipe write under sendMu keeps queue push and line write atomic; the watchdog bounds a stall by tearing the stream down
func (st *peerStream) roundTrip(ctx context.Context, line []byte, timeout time.Duration) ([]byte, error) {
	cell := &pendingRow{done: make(chan []byte, 1)}
	var settled atomic.Bool
	watchdog := time.AfterFunc(timeout, func() {
		// A row landing at the timeout boundary must not kill a healthy
		// stream it already answered on; the flag narrows that race to the
		// instant between delivery and return.
		if settled.Load() {
			return
		}
		st.fail(fmt.Errorf("cluster: no peer row within %s", timeout))
	})
	defer watchdog.Stop()
	st.sendMu.Lock()
	select {
	case st.pending <- cell:
	default:
		st.sendMu.Unlock()
		// The session caps in-flight rows below the queue size, so this is
		// unreachable unless a caller breaks that contract.
		return nil, errors.New("cluster: peer stream congested")
	}
	buf := make([]byte, 0, len(line)+1)
	buf = append(append(buf, line...), '\n')
	_, err := st.pw.Write(buf)
	st.sendMu.Unlock()
	if err != nil {
		// The pipe closes as the exchange dies (a failed dial closes the
		// request body before client.Do returns). Wait for the teardown,
		// which charges the peer, so the row never falls back before the
		// failure is on the books; the watchdog bounds the wait.
		select {
		case <-st.dead:
			return nil, st.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	select {
	case row := <-cell.done:
		settled.Store(true)
		return row, nil
	case <-st.dead:
		return nil, st.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
