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
	// Workers bounds each request's internal derivation/allocation worker
	// pool (core.FleetOptions.Workers / sched.AllocateBatch). ≤ 0 selects
	// GOMAXPROCS.
	Workers int
	// MaxBodyBytes bounds request bodies. ≤ 0 selects 8 MiB.
	MaxBodyBytes int64
	// CompleteInBackground restores the pre-cancellation behaviour: a
	// computation whose budget expires (or whose client disconnects) keeps
	// running detached so its artefacts still warm the cache for a retry.
	// The default is to cancel it — an abandoned request stops consuming
	// CPU the moment nobody is waiting for its answer.
	CompleteInBackground bool
	// StreamWindow bounds the per-stream reorder buffer of the NDJSON
	// streaming endpoints: how many rows may be computed out of order
	// before in-order emission, the peak response-side buffering no matter
	// how long the stream is. ≤ 0 selects 2 × the stream's worker count.
	StreamWindow int

	// Peers switches the server into sharding-gateway mode: derive work
	// (/v1/derive and /v1/derive/stream) is partitioned by canonical plant
	// cache key (core.Application.CacheKey) across these replica addresses
	// on a deterministic consistent-hash ring, each request fanned out as
	// one NDJSON streaming sub-request per peer, with local computation as
	// the fallback when a peer is down or slow. Empty means a plain
	// single-node server.
	Peers []string
	// RingReplicas is the per-peer virtual-node count on the hash ring
	// (≤ 0 selects cluster.DefaultVirtualNodes).
	RingReplicas int
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
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
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
// cancel the in-flight matrix work on expiry or client disconnect (unless
// Config.CompleteInBackground opts back into detached completion). Create
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
		traces: obs.NewRing(0),
	}
	s.sem = make(chan struct{}, s.cfg.MaxInFlight)
	deriveBuffered := s.compute("derive", &s.lat.derive, deriveEndpoint)
	deriveStream := s.stream("derive/stream", &s.lat.deriveStream, DeriveStream)
	if len(s.cfg.Peers) > 0 {
		gw, err := cluster.New(cluster.Config{
			Peers:        s.cfg.Peers,
			VirtualNodes: s.cfg.RingReplicas,
			Timeout:      s.cfg.PeerTimeout,
		})
		if err != nil {
			return nil, err
		}
		s.gw = gw
		deriveBuffered = s.compute("derive", &s.lat.derive, gatewayDeriveEndpoint)
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
	s.mux.HandleFunc("POST /v1/derive", deriveBuffered)
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

		Workers:      effectiveWorkers(s.cfg.Workers),
		StreamWindow: StreamOptions{Window: s.cfg.StreamWindow}.window(effectiveWorkers(s.cfg.Workers)),
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing left to do for a dead client
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
// cancelled computations actually stop. Gateway is only present in
// sharding-gateway mode: the peer list with per-peer health plus the
// peerRows/peerFallbacks counters. Store is only present when the operator
// enabled the persistent derivation store (-cache-dir): its load/store/
// error counters plus the on-disk footprint.
type StatszResponse struct {
	Cache    core.CacheStats `json:"cache"`
	Pool     mat.PoolStats   `json:"pool"`
	Server   ServerStats     `json:"server"`
	Latency  LatencyStats    `json:"latency"`
	SimSteps uint64          `json:"simSteps" metric:"sim_steps_total" help:"Cumulative closed-loop simulation steps across all derivations."`
	Gateway  *cluster.Stats  `json:"gateway,omitempty"`
	Store    *store.Stats    `json:"store,omitempty"`
}

// statsz snapshots every counter both /statsz and /metrics serve.
func (s *Server) statsz() StatszResponse {
	resp := StatszResponse{
		Cache:    core.DeriveCacheStats(),
		Pool:     mat.SharedPool.Stats(),
		Server:   s.Stats(),
		Latency:  s.latencyStats(),
		SimSteps: switching.SimSteps(),
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

// runEndpoint invokes the endpoint with a panic guard: a long-running
// daemon must fail one request, not the whole process, when a computation
// panics (internal/mat panics on shape errors, and future endpoints may
// have validation gaps).
func runEndpoint(ctx context.Context, fn endpoint, s *Server, body []byte) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, &internalError{fmt.Errorf("internal error: %v", r)}
		}
	}()
	return fn(ctx, s, body)
}

// isCancellation reports whether err is a context expiry.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// compute wraps an endpoint with the service's resource discipline:
// the request first acquires an in-flight slot (or is rejected with 503
// when its context expires while queueing), then runs on its own goroutine
// under the per-request compute budget (504 on overrun). By default the
// budget and the client connection actually govern the computation — a
// timeout or disconnect cancels the in-flight matrix work, which stops
// promptly and releases its slot instead of burning CPU for an answer
// nobody will read. Config.CompleteInBackground restores the old detached
// behaviour (the abandoned computation finishes and warms the cache).
//
//cpsdyn:ctx-compat the Background is the documented -complete-background mode: detaching the computation from the request's fate is the feature, not an oversight
func (s *Server) compute(op string, lat *obs.Histogram, fn endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		body, status, err := readBody(r, s.cfg.MaxBodyBytes)
		if err != nil {
			writeError(w, status, err)
			return
		}
		// Every request past the body read is traced and timed: the span
		// carries the per-stage breakdown into /tracez, the histogram the
		// endpoint's whole-request latency (successes, rejections and
		// budget overruns alike) into /statsz and /metrics. A forwarded
		// request's obs.TraceHeader parents the span to the gateway's.
		tr := obs.NewTrace(op, r.Header.Get(obs.TraceHeader))
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		ctx = obs.WithTrace(ctx, tr)
		defer func() {
			lat.Since(start)
			s.finishTrace(ctx, tr)
		}()
		// Prefer a free slot over an expired context: with both select
		// cases ready Go picks randomly, which would turn budget overruns
		// into spurious 503s when capacity was available all along.
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
				return
			}
		}
		computeCtx := ctx
		if s.cfg.CompleteInBackground {
			// Detach the computation from the request's fate; the budget
			// then only bounds how long the client waits for the answer.
			// The trace rides along — stage timings recorded after the
			// handler finishes the span are simply dropped.
			computeCtx = obs.WithTrace(context.Background(), tr)
		}
		type result struct {
			v   any
			err error
		}
		done := make(chan result, 1)
		s.inFlight.Add(1)
		go func() {
			v, err := runEndpoint(computeCtx, fn, s, body)
			if err != nil && isCancellation(err) {
				s.cancelled.Add(1)
			}
			// Settle the books before delivering the result, so a client
			// that reads its response and immediately polls /statsz sees
			// its own request counted and its slot free.
			s.inFlight.Add(-1)
			s.requests.Add(1)
			<-s.sem
			done <- result{v, err}
		}()
		select {
		case res := <-done:
			if res.err != nil {
				if isCancellation(res.err) {
					// The compute context expired and the computation
					// noticed before this select observed ctx.Done. Only a
					// budget overrun is a 504; for a client disconnect
					// nobody is listening for a reply.
					switch {
					case errors.Is(ctx.Err(), context.DeadlineExceeded):
						s.timedOut.Add(1)
						writeError(w, http.StatusGatewayTimeout,
							fmt.Errorf("request exceeded the %s compute budget", s.cfg.Timeout))
					case ctx.Err() != nil: // disconnected
					default:
						// A cancellation error without an expired request
						// context can only be an endpoint bug.
						writeError(w, http.StatusInternalServerError, res.err)
					}
					return
				}
				status := http.StatusBadRequest
				var ie *internalError
				if errors.As(res.err, &ie) {
					status = http.StatusInternalServerError
				}
				writeError(w, status, res.err)
				return
			}
			encodeStart := time.Now()
			writeJSON(w, http.StatusOK, res.v)
			tr.StageSince(obs.StageEncode, encodeStart)
		case <-ctx.Done():
			if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
				// Client disconnected; nobody is listening for a reply and
				// the compute budget was not the problem. By default the
				// cancellation has already reached the computation.
				return
			}
			s.timedOut.Add(1)
			writeError(w, http.StatusGatewayTimeout,
				fmt.Errorf("request exceeded the %s compute budget", s.cfg.Timeout))
		}
	}
}

func readBody(r *http.Request, limit int64) ([]byte, int, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, limit)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("reading body: %w", err)
	}
	return buf.Bytes(), http.StatusOK, nil
}

func decodeStrict(body []byte, v any) error {
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

func deriveEndpoint(ctx context.Context, s *Server, body []byte) (any, error) {
	var req DeriveRequest
	if err := decodeTraced(ctx, body, &req); err != nil {
		return nil, err
	}
	// The operator's -workers flag is a ceiling, not a default: a client
	// may request fewer workers than configured but never more.
	if req.Workers <= 0 || (s.cfg.Workers > 0 && req.Workers > s.cfg.Workers) {
		req.Workers = s.cfg.Workers
	}
	return Derive(ctx, &req)
}

// AllocateResponse is the POST /v1/allocate body for batch requests; a
// single-fleet request answers with the bare FleetResult for slotalloc
// compatibility.
type AllocateResponse struct {
	Fleets []*FleetResult `json:"fleets"`
}

func allocateEndpoint(ctx context.Context, s *Server, body []byte) (any, error) {
	// Allocation analysis is cheap arithmetic; it finishes well inside any
	// budget, so it does not take cancellation points.
	var req AllocateRequest
	if err := decodeTraced(ctx, body, &req); err != nil {
		return nil, err
	}
	fleets, single, err := req.FleetRequests()
	if err != nil {
		return nil, err
	}
	results, err := AllocateFleets(fleets, s.cfg.Workers)
	if err != nil {
		return nil, err
	}
	if single {
		return results[0], nil
	}
	return &AllocateResponse{Fleets: results}, nil
}
