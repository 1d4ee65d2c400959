package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"cpsdyn/internal/cluster"
	"cpsdyn/internal/core"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/obs"
	"cpsdyn/internal/store"
	"cpsdyn/internal/switching"
)

// Config tunes the HTTP server. The zero value selects sensible defaults.
type Config struct {
	// MaxInFlight bounds the number of requests computing concurrently;
	// further requests queue on the semaphore until their context expires.
	// ≤ 0 selects 2 × GOMAXPROCS.
	MaxInFlight int
	// Timeout is the per-request compute budget. ≤ 0 selects 60 s.
	Timeout time.Duration
	// Workers is the ceiling of each request's internal derivation/
	// allocation worker pool and each stream's pool: a client may ask for
	// fewer (see Server.workers). A stream's reorder window is twice its
	// pool. ≤ 0 selects GOMAXPROCS.
	Workers int

	// Peers switches the server into sharding-gateway mode: derive work
	// (/v1/derive and /v1/derive/stream) is partitioned by canonical plant
	// cache key (core.Application.CacheKey) across these replica addresses
	// on a deterministic consistent-hash ring, each request fanned out as
	// one NDJSON streaming sub-request per peer, with local computation as
	// the fallback when a peer is down or slow. Empty means a plain
	// single-node server.
	Peers []string
	// PeerTimeout bounds one row's round-trip to a replica before the row
	// falls back to local computation (≤ 0 selects 10 s).
	PeerTimeout time.Duration

	// Store is the persistent derivation store backing the in-memory cache,
	// when the operator enabled one (-cache-dir). The server only reads its
	// counters for /statsz and /metrics — the cache↔store wiring itself is
	// core.SetDeriveStore, done by the caller that opened the store. Nil
	// means no persistence: no store block in /statsz, no store series in
	// /metrics.
	Store *store.Store

	// Logger receives one structured completion record per request and
	// stream — operation, trace ID, duration, row counts — so a slow
	// /tracez entry can be joined against the log by its trace ID. Nil
	// disables request logging.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	return c
}

// ServerStats are the service-level counters reported by GET /statsz next
// to the derivation-cache counters. Workers and StreamWindow report the
// effective configuration (defaults resolved), so a gateway — or any
// operator — can introspect a replica's capacity over /statsz instead of
// parsing its flags.
type ServerStats struct {
	Requests    uint64 `json:"requests" metric:"requests_total" help:"Compute requests completed (including failed and cancelled ones)."`
	Rejected    uint64 `json:"rejected" metric:"rejected_total" help:"Requests rejected after waiting out their budget for an in-flight slot."`
	TimedOut    uint64 `json:"timedOut" metric:"timed_out_total" help:"Requests whose compute budget expired."`
	Cancelled   uint64 `json:"cancelled" metric:"cancelled_total" help:"Computations aborted by budget expiry or client disconnect."`
	InFlight    int64  `json:"inFlight" metric:"in_flight" help:"Requests currently computing."`
	MaxInFlight int    `json:"maxInFlight" metric:"max_in_flight" help:"The in-flight concurrency bound."`

	Streams         uint64 `json:"streams" metric:"streams_total" help:"NDJSON streams completed across derive, allocate and calibrate (including cancelled ones)."`
	RowsIn          uint64 `json:"rowsIn" metric:"stream_rows_in_total" help:"NDJSON request rows consumed across all streams."`
	RowsOut         uint64 `json:"rowsOut" metric:"stream_rows_out_total" help:"NDJSON result rows written across all streams."`
	StreamCancelled uint64 `json:"streamCancelled" metric:"stream_cancelled_total" help:"Streams cut short by budget expiry, disconnect or write failure."`

	Workers      int `json:"workers" metric:"workers" help:"Per-request worker ceiling (defaults resolved)."`
	StreamWindow int `json:"streamWindow" metric:"stream_window" help:"Per-stream NDJSON reorder window (defaults resolved)."`
}

// Server is the cpsdynd HTTP handler: batch derivation, calibration and
// allocation on top of the process-wide warm derivation cache, with bounded
// in-flight concurrency and per-request compute budgets that actually
// cancel the in-flight matrix work on expiry or client disconnect. Create
// it with New; it is safe for concurrent use. Graceful shutdown is the
// owning http.Server's job (http.Server.Shutdown).
type Server struct {
	cfg Config
	mux *http.ServeMux
	sem chan struct{}
	gw  *cluster.Gateway // non-nil in sharding-gateway mode

	requests  atomic.Uint64
	rejected  atomic.Uint64
	timedOut  atomic.Uint64
	cancelled atomic.Uint64
	inFlight  atomic.Int64

	streams         atomic.Uint64
	rowsIn          atomic.Uint64
	rowsOut         atomic.Uint64
	streamCancelled atomic.Uint64

	lat    latencyHistograms // per-endpoint request latency
	traces *obs.Ring         // recent finished traces, behind GET /tracez
}

// New builds the service handler. It fails only on a misconfigured gateway
// peer set (empty strings, duplicates, unparsable addresses).
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:    cfg.withDefaults(),
		mux:    http.NewServeMux(),
		traces: obs.NewRing(),
	}
	s.sem = make(chan struct{}, s.cfg.MaxInFlight)
	deriveStream := s.stream("derive/stream", &s.lat.deriveStream, DeriveStream)
	if len(s.cfg.Peers) > 0 {
		gw, err := cluster.New(cluster.Config{
			Peers:   s.cfg.Peers,
			Timeout: s.cfg.PeerTimeout,
		})
		if err != nil {
			return nil, err
		}
		s.gw = gw
		// A request already forwarded by a gateway is served single-node:
		// re-sharding it could recurse — a peer list that (mis)includes this
		// gateway's own address, or a ring of gateways, must degrade to one
		// extra hop, not to a stack of sub-requests eating every in-flight
		// slot.
		plain, sharded := deriveStream, s.stream("derive/stream", &s.lat.deriveStream, s.gatewayDeriveStream)
		deriveStream = func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get(cluster.HopHeader) != "" {
				plain(w, r)
				return
			}
			sharded(w, r)
		}
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /tracez", s.handleTracez)
	s.mux.HandleFunc("POST /v1/derive", s.compute("derive", &s.lat.derive, deriveEndpoint))
	s.mux.HandleFunc("POST /v1/derive/stream", deriveStream)
	s.mux.HandleFunc("POST /v1/allocate", s.compute("allocate", &s.lat.allocate, allocateEndpoint))
	s.mux.HandleFunc("POST /v1/allocate/stream", s.stream("allocate/stream", &s.lat.allocateStream, AllocateStream))
	s.mux.HandleFunc("POST /v1/calibrate", s.compute("calibrate", &s.lat.calibrate, calibrateEndpoint))
	s.mux.HandleFunc("POST /v1/calibrate/stream", s.stream("calibrate/stream", &s.lat.calibrateStream, CalibrateStream))
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Stats snapshots the service counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:    s.requests.Load(),
		Rejected:    s.rejected.Load(),
		TimedOut:    s.timedOut.Load(),
		Cancelled:   s.cancelled.Load(),
		InFlight:    s.inFlight.Load(),
		MaxInFlight: s.cfg.MaxInFlight,

		Streams:         s.streams.Load(),
		RowsIn:          s.rowsIn.Load(),
		RowsOut:         s.rowsOut.Load(),
		StreamCancelled: s.streamCancelled.Load(),

		Workers:      s.workers(0),
		StreamWindow: StreamOptions{Workers: s.workers(0)}.window(),
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if body, err := encodeReply(v); err == nil {
		w.Write(body) //nolint:errcheck // nothing left to do for a dead client
	}
}

// encodeReply renders a reply body: JSON indented by two spaces and ended
// by a newline. A single fleet's *FleetResult goes through the typed
// encoder, everything else (and a fleet the typed encoder declines)
// through json.Encoder.
func encodeReply(v any) ([]byte, error) {
	if fr, ok := v.(*FleetResult); ok {
		if body, ok := appendFleetReply(nil, fr); ok {
			return body, nil
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// StatszResponse is the GET /statsz body, and /metrics renders the same
// snapshot from the metric/help tags on its fields (see writeMetrics).
// SimSteps is the cumulative closed-loop simulation step counter
// (switching.SimSteps) — a live compute gauge: it stops climbing when
// cancelled computations actually stop. CertRefusals counts the loop
// matrices that got no stop certificate (switching.CertRefusals), each of
// whose walks ran to its horizon. Gateway is only present in
// sharding-gateway mode: the peer list with per-peer health plus the
// peerRows/peerFallbacks counters. Store is only present when the operator
// enabled the persistent derivation store (-cache-dir): its load/store/
// error counters plus the on-disk footprint.
type StatszResponse struct {
	Cache        core.CacheStats `json:"cache"`
	Pool         mat.PoolStats   `json:"pool"`
	Server       ServerStats     `json:"server"`
	Latency      LatencyStats    `json:"latency"`
	SimSteps     uint64          `json:"simSteps" metric:"sim_steps_total" help:"Cumulative closed-loop simulation steps across all derivations."`
	CertRefusals uint64          `json:"certRefusals" metric:"cert_refusals_total" help:"Loop matrices without a stop certificate, whose settling walks ran to the horizon."`
	Gateway      *cluster.Stats  `json:"gateway,omitempty"`
	Store        *store.Stats    `json:"store,omitempty"`
}

// statsz snapshots every counter both /statsz and /metrics serve.
func (s *Server) statsz() StatszResponse {
	resp := StatszResponse{
		Cache:        core.DeriveCacheStats(),
		Pool:         mat.SharedPool.Stats(),
		Server:       s.Stats(),
		Latency:      s.latencyStats(),
		SimSteps:     switching.SimSteps(),
		CertRefusals: switching.CertRefusals(),
	}
	if s.gw != nil {
		gst := s.gw.Stats()
		resp.Gateway = &gst
	}
	if s.cfg.Store != nil {
		sst := s.cfg.Store.Stats()
		resp.Store = &sst
	}
	return resp
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statsz())
}

// endpoint decodes its body and computes a response; a returned error is a
// client error (400). compute wraps it with the semaphore/budget machinery
// and hands it the context whose expiry must abort the computation.
type endpoint func(ctx context.Context, s *Server, body []byte) (any, error)

// internalError marks a server-side failure (a recovered panic) so the
// handler answers 500 instead of blaming the client with a 400.
type internalError struct{ err error }

func (e *internalError) Error() string { return e.err.Error() }
func (e *internalError) Unwrap() error { return e.err }

// guard runs one unit of request work (a buffered request, one item of
// its fan-out, one stream row) and turns a panic in it into an
// *internalError for that unit alone: a long-running daemon must fail one
// request, item or row, not the whole process, when a computation panics
// (internal/mat panics on shape errors, and validation can have gaps). It
// is the package's only recover. fn stores its result in the caller's
// variables, so guard is one small frame under every request, item and
// row.
func guard(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &internalError{fmt.Errorf("internal error: %v", p)}
		}
	}()
	return fn()
}

// isCancellation reports whether err is a context expiry.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// begin opens a request's span and compute budget: the span is parented to
// a forwarded obs.TraceHeader, and the returned context ends when the
// budget expires or the client goes away. end records the whole request's
// latency into lat — successes, rejections and budget overruns alike —
// and finishes the span into /tracez.
func (s *Server) begin(r *http.Request, op string, lat *obs.Histogram, start time.Time) (ctx context.Context, tr *obs.Trace, end func()) {
	tr = obs.NewTrace(op, r.Header.Get(obs.TraceHeader))
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	ctx = obs.WithTrace(ctx, tr)
	return ctx, tr, func() {
		lat.Since(start)
		s.finishTrace(ctx, tr)
		cancel()
	}
}

// acquire takes an in-flight slot, preferring a free slot over an expired
// context: with both select cases ready Go picks randomly, which would
// turn budget overruns into spurious 503s when capacity was available all
// along. When ctx ends first it answers 503 and reports false.
func (s *Server) acquire(ctx context.Context, w http.ResponseWriter) bool {
	select {
	case s.sem <- struct{}{}:
	default:
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			// A vanished client is not back-pressure; only count
			// deadline expiries as rejections.
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				s.rejected.Add(1)
			}
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("server busy: %d requests in flight", s.inFlight.Load()))
			return false
		}
	}
	s.inFlight.Add(1)
	return true
}

// release frees the slot acquire took and counts the finished request or
// stream into done. The books settle before the slot frees, so a client
// that reads its response and immediately polls /statsz sees its own
// request counted and its slot free.
func (s *Server) release(done *atomic.Uint64) {
	s.inFlight.Add(-1)
	done.Add(1)
	<-s.sem
}

// countCancellation books a request or stream whose work ended in err: a
// cancellation counts into cancelled and, when the compute budget rather
// than the client caused it, into timedOut too. That last case is the one
// the client is still owed an answer for, so it reports it.
func (s *Server) countCancellation(ctx context.Context, err error) (overBudget bool) {
	if !isCancellation(err) {
		return false
	}
	s.cancelled.Add(1)
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return false
	}
	s.timedOut.Add(1)
	return true
}

// workers resolves a client's worker request (the buffered workers field,
// a stream's ?workers=) against the operator's -workers ceiling, which
// defaults to GOMAXPROCS: a request in (0, ceiling] is honoured, anything
// else runs at the ceiling. A stream's pool and window are allocated
// before its first line is read, so an unbounded value would be a trivial
// memory DoS.
func (s *Server) workers(requested int) int {
	ceiling := effectiveWorkers(s.cfg.Workers)
	if requested <= 0 || requested > ceiling {
		return ceiling
	}
	return requested
}

// compute wraps an endpoint with the service's resource discipline: the
// request first acquires an in-flight slot (or is rejected with 503 when
// its context expires while queueing), then computes on the handler
// goroutine under the panic guard and the per-request compute budget. The
// budget and the client connection govern the computation: a timeout or
// disconnect cancels the in-flight matrix work, which stops promptly and
// releases its slot instead of burning CPU for an answer nobody will
// read, and an overrun answers 504.
func (s *Server) compute(op string, lat *obs.Histogram, fn endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		body, status, err := readBody(r)
		if err != nil {
			writeError(w, status, err)
			return
		}
		// Every request past the body read is traced and timed.
		ctx, tr, end := s.begin(r, op, lat, start)
		defer end()
		if !s.acquire(ctx, w) {
			return
		}
		var v any
		err = guard(func() (err error) { v, err = fn(ctx, s, body); return err })
		overBudget := s.countCancellation(ctx, err)
		s.release(&s.requests)
		switch {
		case err == nil:
			encodeStart := time.Now()
			writeJSON(w, http.StatusOK, v)
			tr.StageSince(obs.StageEncode, encodeStart)
		case overBudget:
			writeError(w, http.StatusGatewayTimeout,
				fmt.Errorf("request exceeded the %s compute budget", s.cfg.Timeout))
		case isCancellation(err) && ctx.Err() != nil:
			// The client disconnected: nobody is listening for a reply.
		default:
			status := http.StatusBadRequest
			var ie *internalError
			if errors.As(err, &ie) || isCancellation(err) {
				// A recovered panic, or a cancellation the request's own
				// context did not cause: the server failed, not the client.
				status = http.StatusInternalServerError
			}
			writeError(w, status, err)
		}
	}
}

// maxBodyBytes bounds a buffered request body and one line of a stream.
const maxBodyBytes = 8 << 20

// readBody reads a buffered request body of at most maxBodyBytes; a longer
// one answers 413.
func readBody(r *http.Request) ([]byte, int, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, maxBodyBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", maxBodyBytes)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("reading body: %w", err)
	}
	return buf.Bytes(), http.StatusOK, nil
}

// decodeStrict decodes one JSON value from body into v, rejecting unknown
// fields and trailing data. The typed decoder answers the shapes it knows;
// whatever it declines, decodeJSON decodes.
func decodeStrict(body []byte, v any) error {
	if decodeTyped(body, v) {
		return nil
	}
	return decodeJSON(body, v)
}

// decodeJSON is decodeStrict on encoding/json alone: the reference the
// typed decoder is checked against.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parsing request: %w", err)
	}
	// A second value (or garbage) after the payload would be silently
	// dropped otherwise — on an NDJSON line that means a lost row with
	// every later index shifted, so it must be a hard decode error.
	if err := dec.Decode(new(any)); err != io.EOF {
		return errors.New("parsing request: unexpected data after the JSON value")
	}
	return nil
}

// deriveEndpoint is the buffered /v1/derive: compile and validate every
// app, then answer each with the server's per-item derive function —
// deriveLocal, or in sharding-gateway mode the replica owning the app's
// cache key over one session for the request.
func deriveEndpoint(ctx context.Context, s *Server, body []byte) (any, error) {
	var req DeriveRequest
	if err := decodeTraced(ctx, body, &req); err != nil {
		return nil, err
	}
	req.Workers = s.workers(req.Workers)
	apps, err := req.applications()
	if err != nil {
		return nil, err
	}
	if s.gw == nil {
		return deriveApps(ctx, &req, apps, req.Workers, deriveLocal)
	}
	// The session's in-flight bound sizes a per-peer buffer, and the pool
	// never runs more workers than apps.
	workers := min(req.Workers, len(apps))
	sess := s.gw.Session(ctx, workers)
	defer sess.Close()
	return deriveApps(ctx, &req, apps, workers, s.peerDerive(sess))
}

// AllocateResponse is the POST /v1/allocate body for batch requests; a
// single-fleet request answers with the bare FleetResult for slotalloc
// compatibility.
type AllocateResponse struct {
	Fleets []*FleetResult `json:"fleets"`
}

func allocateEndpoint(ctx context.Context, s *Server, body []byte) (any, error) {
	// The heuristics finish well inside any budget, but the exact search
	// is exponential: it honours ctx, so a budget overrun frees the slot.
	var req AllocateRequest
	if err := decodeTraced(ctx, body, &req); err != nil {
		return nil, err
	}
	fleets, single, err := req.FleetRequests()
	if err != nil {
		return nil, err
	}
	results, err := AllocateFleets(ctx, fleets, s.workers(0))
	if err != nil {
		return nil, err
	}
	if single {
		return results[0], nil
	}
	return &AllocateResponse{Fleets: results}, nil
}
