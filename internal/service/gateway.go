package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"

	"cpsdyn/internal/cluster"
	"cpsdyn/internal/core"
)

// This file is the gateway side of the cluster layer: the per-item derive
// function /v1/derive and /v1/derive/stream call when Config.Peers is set.
// Both handlers keep their single-node contract — identical validation,
// identical wire rows, identical ordering — because only the per-item step
// differs: it routes every app to the replica owning its canonical cache
// key (core.Application.CacheKey) on the consistent-hash
// ring, over one persistent NDJSON sub-stream per peer and request
// (cluster.Session). A row whose peer is down, slow or circuit-broken is
// derived locally instead, so a degraded cluster answers exactly what a
// single node would, just colder.

// gatewayLine renders the canonical NDJSON request line forwarded to a
// replica: the client's spec with its index-dependent default (the frame ID)
// resolved, so the replica compiles exactly the application the gateway
// validated no matter where the line lands in the sub-stream's own
// numbering.
func gatewayLine(spec DeriveAppSpec, index int) ([]byte, error) {
	if spec.FrameID == 0 {
		spec.FrameID = index + 1
	}
	return json.Marshal(spec)
}

// peerDeriveRow interprets a replica's raw response row, re-indexed into the
// gateway's own numbering. ok == false means the row is not a well-formed
// result-or-error row and the caller must derive locally.
func peerDeriveRow(raw []byte, index int) (StreamRow, bool) {
	var row StreamRow
	if err := json.Unmarshal(raw, &row); err != nil || (row.Result == nil) == (row.Error == "") {
		return StreamRow{}, false
	}
	row.Index = index
	return row, true
}

// peerRoute tries to answer one validated app through the replica owning
// its cache key. ok == false means the caller must derive locally — the
// owner was down, slow or circuit-broken, or its answer was unusable (the
// shape check runs inside the exchange via Do's accept hook, so a rejected
// row lands in the fallback books and charges the peer instead of
// masquerading as a success).
func (s *Server) peerRoute(ctx context.Context, sess *cluster.Session,
	spec DeriveAppSpec, index int, app *core.Application) (StreamRow, bool) {
	line, err := gatewayLine(spec, index)
	if err != nil {
		return StreamRow{}, false
	}
	var row StreamRow
	_, ok := sess.Do(ctx, app.CacheKey(), line, func(raw []byte) bool {
		var shaped bool
		row, shaped = peerDeriveRow(raw, index)
		// A cancelled row is the replica's own stream dying (its budget
		// expired, say), not the app failing to derive: a single node
		// would have answered the app, so the gateway rejects the row —
		// deriving it locally and charging the replica, which earns its
		// breaker cooldown by repeatedly cancelling mid-stream. The
		// structured marker, not error text, carries the distinction: the
		// text embeds client-chosen names, which must not be able to spell
		// a row into looking cancelled.
		return shaped && !row.Cancelled
	})
	return row, ok
}

// peerDerive is the gateway's deriveFunc for one request: each app goes to
// the replica owning its cache key over sess, and is derived locally when
// the owner is down, slow or answers unusably. A replica's error row is
// that app's derivation failure (the gateway already ran the request
// validation the replica repeats, so nothing else can come back) and is
// reported like a local one.
func (s *Server) peerDerive(sess *cluster.Session) deriveFunc {
	return func(ctx context.Context, spec *DeriveAppSpec, i int, app *core.Application) (DeriveResult, error) {
		if row, ok := s.peerRoute(ctx, sess, *spec, i, app); ok {
			if row.Error != "" {
				return DeriveResult{}, errors.New(row.Error)
			}
			return *row.Result, nil
		}
		return deriveLocal(ctx, spec, i, app)
	}
}

// gatewayDeriveStream is DeriveStream in sharding-gateway mode: the same
// NDJSON framing, duplicate-name discipline, bounded reorder window and
// in-order emission, but each row rides the persistent sub-stream to the
// replica owning its plant's cache key. The session is bounded by the
// stream's worker count — at most that many rows can await peers at once —
// and dies with the stream, so a client disconnect or budget expiry tears
// the per-peer sub-requests down too.
func (s *Server) gatewayDeriveStream(ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions) (StreamStats, error) {
	sess := s.gw.Session(ctx, effectiveWorkers(opts.Workers))
	defer sess.Close()
	return deriveStream(ctx, r, w, opts, s.peerDerive(sess))
}
