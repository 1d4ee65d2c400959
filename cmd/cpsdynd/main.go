// Command cpsdynd is the long-running derivation service: the full
// derive → model-fit → allocate pipeline of the paper behind an HTTP/JSON
// API, with the expensive intermediates (matrix exponentials, exhaustive
// dwell-curve simulations) memoised in a process-wide size-aware LRU cache
// that stays warm across requests.
//
// Endpoints:
//
//	POST /v1/derive    batch fleet derivation (service.DeriveRequest):
//	                   plants + timing in, Table-I-style rows and fitted
//	                   §III models out
//	POST /v1/derive/stream
//	                   the same derivation as NDJSON: one DeriveAppSpec per
//	                   request line, one result row flushed per derivation,
//	                   emitted in input order while later lines are still
//	                   being read — memory stays O(workers + window) no
//	                   matter how large the fleet. Malformed lines become
//	                   per-row error rows; ?workers=N bounds the per-stream
//	                   pool below the -workers ceiling
//	POST /v1/calibrate measured-mode workflow: plants + response-time
//	                   targets in, calibrated pole-placement designs plus
//	                   the same derive rows out
//	POST /v1/calibrate/stream
//	                   the calibration workflow as NDJSON: one
//	                   CalibrateAppSpec per request line, one calibrated
//	                   row flushed per app, in input order
//	POST /v1/allocate  TT-slot allocation for one fleet (slotalloc's input
//	                   schema) or a {"fleets": [...]} batch, each fleet
//	                   allocated concurrently; "policy": "race" races the
//	                   heuristics per fleet
//	POST /v1/allocate/stream
//	                   allocation as NDJSON: one FleetRequest per request
//	                   line (slotalloc -stream's schema), one fleet row
//	                   flushed per allocation, in input order
//	GET  /healthz      liveness probe
//	GET  /statsz       derivation-cache hit/miss/diskHit/eviction counters,
//	                   server in-flight/timeout/cancellation counters, the
//	                   effective workers/stream-window configuration, the
//	                   cumulative simulation-step gauge, per-endpoint and
//	                   per-stage latency histograms, — in gateway
//	                   mode — per-peer health plus peerRows/peerFallbacks
//	                   and — with -cache-dir — the persistent store's
//	                   load/store/error counters and on-disk footprint
//	GET  /metrics      the same counters in Prometheus text format, latency
//	                   histograms as _bucket/_sum/_count triplets
//	GET  /tracez       the most recent finished request traces, slowest
//	                   first, each with its aggregated per-stage breakdown
//	                   (decode, cache lookup, disk read-through,
//	                   discretisation, curve sampling, encode, peer round
//	                   trips)
//
// # Gateway mode
//
// -peers host1:8700,host2:8700,... turns the daemon into a sharding
// gateway: derive work is partitioned by canonical plant cache key
// (core.Application.CacheKey) across the replicas on a deterministic
// consistent-hash ring (-ring-replicas virtual nodes per peer), each
// request fanned out as one persistent NDJSON sub-stream per peer, rows
// reassembled in input order. A replica that is down, slow (-peer-timeout)
// or circuit-broken costs nothing but warmth: its rows are derived locally
// and counted as peerFallbacks. Replicas are plain cpsdynd processes — the
// same binary, no flags — and because equal cache keys always land on the
// same replica, each replica's LRU holds a disjoint, stable slice of the
// fleet's derivation cache. A forwarded request is never re-sharded (hop
// header), so a peer list that mistakenly includes the gateway's own
// address degrades to one wasteful extra hop instead of recursing.
//
// # Persistent derivation store
//
// -cache-dir DIR (off by default) backs the in-memory cache with a
// content-addressed disk store: every derived discretisation and dwell
// curve is written behind to DIR as a CRC-guarded record keyed by the
// SHA-256 of its bit-exact cache key, and a memory miss reads through DIR
// before recomputing. A restarted daemon pointed at the same directory
// rejoins warm — it serves its shard from disk (counted as diskHits and
// store loads, not misses) instead of re-deriving it. Torn or corrupt
// records are detected by CRC, deleted and re-derived; they can never be
// served. -cache-dir-bytes bounds the on-disk footprint (oldest records
// evicted first; 0 = unbounded).
//
// # Observability
//
// Logs are structured (log/slog, logfmt-style text on stderr): every
// completed request or stream emits one record carrying its op, trace ID,
// duration and row count, joinable against GET /tracez by the trace ID. A
// client may supply its own span ID in the X-Cpsdyn-Trace header; the
// gateway forwards its trace ID the same way, so a replica's spans name
// the gateway span as parent. -debug-addr 127.0.0.1:8701 (off by default)
// serves net/http/pprof profiling handlers on a separate listener, keeping
// profile endpoints off the service port.
//
// Concurrency is bounded by -max-inflight (excess requests queue and are
// rejected 503 once their deadline passes) and each request gets a -timeout
// compute budget (504 on overrun). A budget overrun or client disconnect
// cancels the in-flight matrix work — the computation stops consuming CPU
// promptly — unless -complete-background restores the old detached
// behaviour (the abandoned computation finishes and warms the cache).
// Cache-miss dwell-curve sampling fans out across -curve-workers cores.
// SIGINT/SIGTERM trigger a graceful drain.
//
// Usage: cpsdynd [-addr :8700] [-cache-entries 1024] [-cache-bytes N]
// [-cache-dir DIR] [-cache-dir-bytes N] [-max-inflight N] [-timeout 60s]
// [-workers N] [-curve-workers N] [-stream-window N] [-complete-background]
// [-peers h1:8700,h2:8700] [-ring-replicas N] [-peer-timeout 10s]
// [-debug-addr 127.0.0.1:8701]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cpsdyn/internal/core"
	"cpsdyn/internal/service"
	"cpsdyn/internal/store"
)

// fatal logs one structured error record and exits, the slog counterpart
// of log.Fatalf.
func fatal(logger *slog.Logger, msg string, attrs ...any) {
	logger.Error(msg, attrs...)
	os.Exit(1)
}

// debugServer serves net/http/pprof on its own listener, so profiling
// never rides the service port: an operator can firewall -debug-addr to
// localhost while /v1 stays public. The explicit mux registers only the
// pprof handlers — nothing else leaks onto the debug port.
func debugServer(addr string, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	logger.Info("pprof listening", "addr", addr)
	if err := srv.ListenAndServe(); err != nil {
		// The debug listener is an aid, not the service: its failure is
		// loud but not fatal.
		logger.Error("pprof server", "err", err)
	}
}

func main() {
	var (
		addr         = flag.String("addr", ":8700", "listen address")
		debugAddr    = flag.String("debug-addr", "", "listen address for net/http/pprof profiling handlers (empty = no profiling listener)")
		cacheEntries = flag.Int("cache-entries", 1024, "derivation cache capacity in entries, clamped to ≥ 1; a design takes up to 4 (2 discretisations, 1 curve, 1 derivation bundle)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "derivation cache budget in approximate bytes (0 = unbounded)")
		cacheDir     = flag.String("cache-dir", "", "directory for the persistent derivation store (empty = no persistence)")
		cacheDirMax  = flag.Int64("cache-dir-bytes", 0, "on-disk byte cap for -cache-dir, oldest records evicted first (0 = unbounded)")
		maxInFlight  = flag.Int("max-inflight", 0, "maximum concurrently computing requests (0 = 2×GOMAXPROCS)")
		timeout      = flag.Duration("timeout", 60*time.Second, "per-request compute budget")
		workers      = flag.Int("workers", 0, "per-request derivation/allocation workers (0 = GOMAXPROCS)")
		curveWorkers = flag.Int("curve-workers", 0, "dwell-curve sampling fan-out on cache misses (0 = GOMAXPROCS, 1 = sequential)")
		streamWindow = flag.Int("stream-window", 0, "per-stream NDJSON reorder window: rows derived out of order awaiting in-order emission (0 = 2×workers)")
		background   = flag.Bool("complete-background", false, "let timed-out/disconnected computations finish detached (warming the cache) instead of cancelling them")
		drain        = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		peers        = flag.String("peers", "", "comma-separated replica addresses (host:port or URL); non-empty switches the daemon into sharding-gateway mode")
		ringReplicas = flag.Int("ring-replicas", 0, "virtual nodes per peer on the consistent-hash ring (0 = 128)")
		peerTimeout  = flag.Duration("peer-timeout", 10*time.Second, "per-row round-trip budget to a replica before the row falls back to local derivation")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: cpsdynd [flags]")
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	core.SetDeriveCacheCapacity(*cacheEntries, *cacheBytes)
	core.SetCurveSamplingWorkers(*curveWorkers)
	var st *store.Store
	if *cacheDir != "" {
		var err error
		st, err = store.Open(*cacheDir, store.Options{MaxBytes: *cacheDirMax})
		if err != nil {
			fatal(logger, "opening -cache-dir", "dir", *cacheDir, "err", err)
		}
		core.SetDeriveStore(st)
		logger.Info("persistent store warm", "dir", *cacheDir,
			"records", st.Stats().Records, "bytes", st.Stats().Bytes)
	}
	cfg := service.Config{
		MaxInFlight:          *maxInFlight,
		Timeout:              *timeout,
		Workers:              *workers,
		CompleteInBackground: *background,
		StreamWindow:         *streamWindow,
		RingReplicas:         *ringReplicas,
		PeerTimeout:          *peerTimeout,
		Store:                st,
		Logger:               logger,
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cfg.Peers = append(cfg.Peers, p)
		}
	}
	handler, err := service.New(cfg)
	if err != nil {
		fatal(logger, "configuring service", "err", err)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	if *debugAddr != "" {
		go debugServer(*debugAddr, logger)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if len(cfg.Peers) > 0 {
			logger.Info("gateway mode", "addr", *addr, "peers", cfg.Peers)
		}
		logger.Info("listening", "addr", *addr,
			"cacheEntries", *cacheEntries, "cacheBytes", *cacheBytes)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(logger, "serving", "err", err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down", "drain", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fatal(logger, "shutdown", "err", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(logger, "serving", "err", err)
	}
	if st != nil {
		// Drain the write-behind queue so the artefacts of late requests
		// survive the restart — that is the whole point of the store.
		core.SetDeriveStore(nil)
		if err := st.Close(); err != nil {
			logger.Error("closing store", "err", err)
		}
		ss := st.Stats()
		logger.Info("store closed", "loads", ss.Loads, "stores", ss.Stores,
			"loadErrors", ss.LoadErrors, "records", ss.Records, "bytes", ss.Bytes)
	}
	cs := core.DeriveCacheStats()
	logger.Info("bye", "cacheHits", cs.Hits, "cacheMisses", cs.Misses,
		"diskHits", cs.DiskHits, "evictions", cs.Evictions)
}
