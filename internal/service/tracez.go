package service

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"cpsdyn/internal/obs"
)

// This file is the service half of internal/obs: the per-endpoint request
// histograms, the latency block of /statsz, the bounded ring of finished
// traces behind GET /tracez, and the request-completion bookkeeping
// (trace finish, ring insert, structured log line) every handler shares.

// latencyHistograms holds one request-latency histogram per endpoint.
// They live on the Server (not package globals) so two servers in one
// process — every gateway test boots a cluster — keep separate books.
type latencyHistograms struct {
	derive          obs.Histogram
	deriveStream    obs.Histogram
	allocate        obs.Histogram
	allocateStream  obs.Histogram
	calibrate       obs.Histogram
	calibrateStream obs.Histogram
}

// LatencyStats is the latency block of /statsz: per-endpoint request
// latency, the shared per-row derive latency, and — when the matching
// subsystem is enabled — store and peer latency. Each field is one
// histogram snapshot, which /metrics renders as one Prometheus histogram
// family (_bucket/_sum/_count).
type LatencyStats struct {
	Derive          obs.Snapshot  `json:"derive" metric:"latency_derive_seconds" help:"Buffered /v1/derive request latency."`
	DeriveStream    obs.Snapshot  `json:"deriveStream" metric:"latency_derive_stream_seconds" help:"/v1/derive/stream request latency (whole stream)."`
	Allocate        obs.Snapshot  `json:"allocate" metric:"latency_allocate_seconds" help:"Buffered /v1/allocate request latency."`
	AllocateStream  obs.Snapshot  `json:"allocateStream" metric:"latency_allocate_stream_seconds" help:"/v1/allocate/stream request latency (whole stream)."`
	Calibrate       obs.Snapshot  `json:"calibrate" metric:"latency_calibrate_seconds" help:"Buffered /v1/calibrate request latency."`
	CalibrateStream obs.Snapshot  `json:"calibrateStream" metric:"latency_calibrate_stream_seconds" help:"/v1/calibrate/stream request latency (whole stream)."`
	DeriveRow       obs.Snapshot  `json:"deriveRow" metric:"latency_derive_row_seconds" help:"Per-row derivation latency on the memo-cache slow path."`
	StoreLoad       *obs.Snapshot `json:"storeLoad,omitempty" metric:"latency_store_load_seconds" help:"Persistent-store load latency (disk-touching attempts, hit or corrupt)."`
	StoreStore      *obs.Snapshot `json:"storeStore,omitempty" metric:"latency_store_store_seconds" help:"Persistent-store write latency."`
	PeerRoundTrip   *obs.Snapshot `json:"peerRoundTrip,omitempty" metric:"latency_peer_round_trip_seconds" help:"Settled peer exchange round-trip latency in sharding-gateway mode."`
}

// latencyStats snapshots every histogram the server exports. The store and
// peer histograms are process-wide (like the caches they instrument) but
// only meaningful when the subsystem is on, so they are gated exactly like
// the store and gateway counter blocks: absent on a plain server, present
// — even at zero — once -cache-dir or -peers enables the code path.
func (s *Server) latencyStats() LatencyStats {
	ls := LatencyStats{
		Derive:          s.lat.derive.Snapshot(),
		DeriveStream:    s.lat.deriveStream.Snapshot(),
		Allocate:        s.lat.allocate.Snapshot(),
		AllocateStream:  s.lat.allocateStream.Snapshot(),
		Calibrate:       s.lat.calibrate.Snapshot(),
		CalibrateStream: s.lat.calibrateStream.Snapshot(),
		DeriveRow:       obs.DeriveRowLatency.Snapshot(),
	}
	if s.cfg.Store != nil {
		load, st := obs.StoreLoadLatency.Snapshot(), obs.StoreStoreLatency.Snapshot()
		ls.StoreLoad, ls.StoreStore = &load, &st
	}
	if s.gw != nil {
		rtt := obs.PeerRTTLatency.Snapshot()
		ls.PeerRoundTrip = &rtt
	}
	return ls
}

// TracezResponse is the GET /tracez body: the most recent finished traces,
// slowest first, each with its aggregated per-stage breakdown.
type TracezResponse struct {
	Traces []obs.TraceSnapshot `json:"traces"`
}

// handleTracez serves the ring of recent traces, slowest-first. The ring
// holds finished requests only; an in-flight request appears once its
// handler completes.
func (s *Server) handleTracez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, TracezResponse{Traces: s.traces.Snapshot()})
}

// finishTrace closes a request's span, retains it for /tracez and emits
// the structured completion log line — the trace ID makes a slow /tracez
// entry joinable against the log stream. ctx is the request context, so a
// context-aware slog handler can see it (expired or not; the default
// handlers ignore it).
func (s *Server) finishTrace(ctx context.Context, tr *obs.Trace) {
	snap := tr.Finish()
	s.traces.Add(snap)
	if s.cfg.Logger == nil {
		return
	}
	attrs := make([]slog.Attr, 0, 5)
	attrs = append(attrs,
		slog.String("op", snap.Op),
		slog.String("trace", snap.ID),
		slog.Float64("seconds", snap.Seconds))
	if snap.Parent != "" {
		attrs = append(attrs, slog.String("parent", snap.Parent))
	}
	if snap.Rows > 0 {
		attrs = append(attrs, slog.Int64("rows", snap.Rows))
	}
	s.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
}

// decodeTraced is decodeStrict with the decode attributed to the request
// trace's decode stage — the buffered endpoints' counterpart of the
// per-line timing inside decodeLines.
func decodeTraced(ctx context.Context, body []byte, v any) error {
	tr := obs.FromContext(ctx)
	if tr == nil {
		return decodeStrict(body, v)
	}
	t0 := time.Now()
	err := decodeStrict(body, v)
	tr.StageSince(obs.StageDecode, t0)
	return err
}
