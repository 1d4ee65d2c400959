package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"cpsdyn/internal/conc"
	"cpsdyn/internal/obs"
)

// Line is one decoded NDJSON input line. Exactly one of Val and Err is set:
// a malformed line is reported as an error Line (Err unwraps to a
// *RequestError) so the consumer can emit a per-line error row and keep
// streaming instead of aborting the whole request.
type Line[T any] struct {
	Index int // 0-based position among the non-blank input lines
	Val   *T
	Err   error
}

// DecodeLines decodes an NDJSON stream into an iterator of Lines: one JSON
// value of type T per input line, unknown fields rejected, blank lines
// skipped. maxLine bounds one line's byte length (≤ 0 selects 8 MiB, the
// limit the service applies to a request body and to a stream line).
//
// Per-line decode failures never stop the iteration — they surface as error
// Lines. Only a reader failure (or a line exceeding maxLine, which makes
// resynchronisation impossible) ends the stream early, as a final error
// Line. This is the request half of the streaming codec shared by
// POST /v1/derive/stream, slotalloc -stream and cpsrepro derive -stream.
func DecodeLines[T any](r io.Reader, maxLine int64) iter.Seq[Line[T]] {
	return decodeLines[T](r, maxLine, nil)
}

// decodeLines is DecodeLines with per-line decode timing attributed to the
// trace's decode stage. Only the decodeStrict call is timed — the scanner
// read blocks on the network (for a gateway sub-stream, on the gateway's
// own pace), which is idle time, not decoding.
func decodeLines[T any](r io.Reader, maxLine int64, tr *obs.Trace) iter.Seq[Line[T]] {
	if maxLine <= 0 {
		maxLine = maxBodyBytes
	}
	return func(yield func(Line[T]) bool) {
		sc := bufio.NewScanner(r)
		// Lines are a few hundred bytes, so the per-stream buffer starts
		// small and the scanner doubles it up to the limit when a line
		// needs it. Its cap is max(limit, cap(buf)): the initial buffer
		// must not exceed the line limit or small limits are ignored.
		sc.Buffer(make([]byte, 0, min(4<<10, maxLine)), int(maxLine))
		i := 0
		for sc.Scan() {
			raw := bytes.TrimSpace(sc.Bytes())
			if len(raw) == 0 {
				continue
			}
			ln := Line[T]{Index: i}
			v := new(T)
			var t0 time.Time
			if tr != nil {
				t0 = time.Now()
			}
			if err := decodeStrict(raw, v); err != nil {
				ln.Err = &RequestError{Err: err}
			} else {
				ln.Val = v
			}
			if tr != nil {
				tr.StageSince(obs.StageDecode, t0)
			}
			i++
			if !yield(ln) {
				return
			}
		}
		if err := sc.Err(); err != nil {
			yield(Line[T]{Index: i, Err: &RequestError{
				Err: fmt.Errorf("reading stream: %w", err)}})
		}
	}
}

// DecodeRequests is the /v1/derive/stream request decoder: one DeriveAppSpec
// per NDJSON line.
func DecodeRequests(r io.Reader, maxLine int64) iter.Seq[Line[DeriveAppSpec]] {
	return DecodeLines[DeriveAppSpec](r, maxLine)
}

// EncodeResult writes one NDJSON result row: the compact JSON encoding of v
// followed by a newline, in one Write. It is the response half of the
// streaming codec; a StreamRow goes through the typed encoder, with
// json.Marshal as its fallback and the encoder of every other row type.
func EncodeResult(w io.Writer, v any) error {
	buf, err := appendResult(make([]byte, 0, 512), v) // a derive row is ~300 bytes
	if err != nil {
		return err
	}
	return writeRow(w, buf)
}

// appendResult appends v's NDJSON row to dst.
func appendResult(dst []byte, v any) ([]byte, error) {
	if row, ok := v.(StreamRow); ok {
		if out, ok := appendStreamRow(dst, &row); ok {
			return append(out, '\n'), nil
		}
	}
	buf, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("encoding result row: %w", err)
	}
	return append(append(dst, buf...), '\n'), nil
}

func writeRow(w io.Writer, row []byte) error {
	if _, err := w.Write(row); err != nil {
		return fmt.Errorf("writing result row: %w", err)
	}
	return nil
}

// StreamRow is one NDJSON line of a /v1/derive/stream response. Index is the
// 0-based input line the row answers; rows are emitted in input order.
// Exactly one of Result and Error is set — an Error row reports that line's
// failure (malformed JSON, validation, derivation) without aborting the
// stream. A terminal row with Index −1 reports the stream itself dying
// (budget expiry); a client that never sees its last index and no terminal
// row was disconnected mid-flight. Cancelled marks an error row whose
// derivation was cut short by the stream's own death (budget expiry,
// disconnect) rather than failing on its merits — a structured marker so a
// gateway can re-derive exactly those rows without parsing error text the
// client may have influenced.
type StreamRow struct {
	Index     int           `json:"index"`
	Result    *DeriveResult `json:"result,omitempty"`
	Error     string        `json:"error,omitempty"`
	Cancelled bool          `json:"cancelled,omitempty"`
}

// StreamStats counts one stream's traffic for the service gauges.
type StreamStats struct {
	RowsIn  int // non-blank request lines consumed
	RowsOut int // response rows written
}

// StreamOptions tunes a streaming derivation or allocation run. A request
// line may be up to 8 MiB long.
type StreamOptions struct {
	// Workers bounds the per-stream derivation pool (≤ 0 = GOMAXPROCS).
	Workers int
}

// window bounds how many rows may be in flight (computed out of order,
// waiting for in-order emission): 2 × the resolved worker count, the peak
// response-side buffering no matter how long the stream is.
func (o StreamOptions) window() int { return 2 * effectiveWorkers(o.Workers) }

// lineSource decodes the request half of a stream: one T per NDJSON line,
// counted into stats. With name set it applies the buffered endpoints'
// duplicate-name rule in the (sequential) source iterator, so no locking:
// a decoded line whose name an earlier line took becomes that error line.
// Error lines keep their name slot: only successfully decoded specs claim
// a name. The seen set is the one per-row retention of the stream — names
// only, a few bytes per row, not rows or results.
func lineSource[T any](r io.Reader, name func(*T) string, stats *StreamStats, tr *obs.Trace) iter.Seq[Line[T]] {
	return func(yield func(Line[T]) bool) {
		seen := make(map[string]bool)
		for ln := range decodeLines[T](r, maxBodyBytes, tr) {
			stats.RowsIn++
			if ln.Val != nil && name != nil {
				if n := name(ln.Val); seen[n] {
					ln = Line[T]{Index: ln.Index, Err: duplicateName(n)}
				} else {
					seen[n] = true
				}
			}
			if !yield(ln) {
				return
			}
		}
	}
}

// encodeSink writes result rows to w, counting each into stats and the
// row's encode+write time into the trace's encode stage — the emission
// half every streaming engine shares. The write is included deliberately:
// a slow client throttling the stream through flow control shows up here,
// which is exactly the question "where does stream time go" asks.
func encodeSink[R any](w io.Writer, stats *StreamStats, tr *obs.Trace) func(int, R) error {
	var buf []byte // reused row to row: emit runs on one goroutine
	return func(_ int, row R) error {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		var err error
		if buf, err = appendResult(buf[:0], row); err != nil {
			return err
		}
		if err := writeRow(w, buf); err != nil {
			return err
		}
		if tr != nil {
			tr.StageSince(obs.StageEncode, t0)
		}
		stats.RowsOut++
		return nil
	}
}

// runStream is the body every streaming engine shares: one T per NDJSON
// line of r (name, when set, applies the duplicate-name rule; see
// lineSource), each line answered by run and written to w as its Row in
// input order, across a bounded worker pool with at most the window of
// rows in flight. Answering a line is one step: a line that failed to
// decode is its error row; otherwise run compiles and answers it under the
// panic guard, so a failure or a panic fails that row alone, and a
// cancellation (the stream's own death, not the item's merits) is marked
// as one. row shapes the outcome into the engine's wire row.
func runStream[T, V, Row any](ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions,
	name func(*T) string, run func(ctx context.Context, v *T, i int) (V, error),
	row func(i int, res *V, err string, cancelled bool) Row) (StreamStats, error) {
	var stats StreamStats
	tr := obs.FromContext(ctx)
	err := conc.StreamOrdered(ctx, opts.Workers, opts.window(),
		lineSource(r, name, &stats, tr),
		func(ctx context.Context, _ int, ln Line[T]) Row {
			if ln.Err != nil {
				return row(ln.Index, nil, ln.Err.Error(), false)
			}
			var v V
			err := guard(func() (err error) { v, err = run(ctx, ln.Val, ln.Index); return err })
			if err != nil {
				return row(ln.Index, nil, err.Error(), isCancellation(err))
			}
			return row(ln.Index, &v, "", false)
		},
		encodeSink[Row](w, &stats, tr), idleHook(w)...)
	return stats, err
}

// DeriveStream runs the streaming derivation pipeline: NDJSON DeriveAppSpec
// lines in from r, NDJSON StreamRows out to w in input order, derived across
// a bounded worker pool with at most O(workers + window) rows buffered. The
// first result is written while later requests are still being read.
//
// Per-line failures (malformed JSON, duplicate or invalid apps, derivation
// errors) become error rows and never abort the stream. A ctx expiry stops
// it mid-flight and is returned (the caller decides whether a terminal row
// can still be written); a write failure on w stops it likewise.
func DeriveStream(ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions) (StreamStats, error) {
	return deriveStream(ctx, r, w, opts, deriveLocal)
}

// deriveStream is DeriveStream answering each row with derive.
func deriveStream(ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions, derive deriveFunc) (StreamStats, error) {
	return runStream(ctx, r, w, opts, (*DeriveAppSpec).appName,
		func(ctx context.Context, spec *DeriveAppSpec, i int) (DeriveResult, error) {
			app, err := spec.application(i) // failures are self-naming *RequestErrors
			if err != nil {
				return DeriveResult{}, err
			}
			return derive(ctx, spec, i, app)
		},
		func(i int, res *DeriveResult, err string, cancelled bool) StreamRow {
			return StreamRow{Index: i, Result: res, Error: err, Cancelled: cancelled}
		})
}

// FleetStreamRow is one NDJSON line of a slotalloc -stream response: the
// allocation outcome for the fleet on input line Index. Error reports a
// malformed line; an infeasible fleet is an analysis outcome and lands in
// Fleet.Error as usual.
type FleetStreamRow struct {
	Index int          `json:"index"`
	Fleet *FleetResult `json:"fleet,omitempty"`
	Error string       `json:"error,omitempty"`
}

// AllocateStream is DeriveStream's allocation sibling: NDJSON FleetRequest
// lines in, NDJSON FleetStreamRows out in input order, allocated across a
// bounded worker pool. It backs slotalloc -stream. The heuristics are
// quick arithmetic, and an exact search stops once ctx expires, which
// makes its row an error row (the pool stops dispatching rows too).
func AllocateStream(ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions) (StreamStats, error) {
	return runStream(ctx, r, w, opts, nil,
		func(ctx context.Context, fr *FleetRequest, _ int) (FleetResult, error) {
			spec, err := fr.spec() // failures are self-describing *RequestErrors
			if err != nil {
				return FleetResult{}, err
			}
			return allocateFleet(ctx, fr, spec)
		},
		func(i int, res *FleetResult, err string, _ bool) FleetStreamRow {
			return FleetStreamRow{Index: i, Fleet: res, Error: err}
		})
}

// effectiveWorkers resolves a worker bound the way the pools do.
func effectiveWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// flushWriter is a stream's response body. Writes stay in the response
// buffer; the engines' emitter calls flush whenever it would wait (see
// idleHook), so a row never waits on the client or on a computation, and
// rows that are ready together leave in one chunk and one write.
type flushWriter struct {
	w     http.ResponseWriter
	f     http.Flusher
	dirty bool // written since the last flush
}

func newFlushWriter(w http.ResponseWriter) *flushWriter {
	f, _ := w.(http.Flusher)
	return &flushWriter{w: w, f: f}
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.dirty = fw.dirty || n > 0
	return n, err
}

// flush pushes what was written since the last flush onto the wire. With
// nothing written it does nothing, so the status line and headers travel
// with the first row rather than alone.
func (fw *flushWriter) flush() {
	if fw.dirty && fw.f != nil {
		fw.f.Flush()
	}
	fw.dirty = false
}

// idleHook is the conc.StreamOrdered idle hook of an engine writing to w:
// the flush of the HTTP handler's flushWriter, and none for any other
// writer (the command-line tools' standard output).
func idleHook(w io.Writer) []func() {
	if fw, ok := w.(*flushWriter); ok {
		return []func(){fw.flush}
	}
	return nil
}

// drainTimeout bounds how long the server may spend reading the unread
// rest of a cancelled stream's request body before it reuses the
// connection; a client stalled past it loses the connection.
const drainTimeout = time.Second

// streamEngine is one NDJSON pipeline: request lines from r, result rows to
// w in input order, under opts. DeriveStream, AllocateStream,
// CalibrateStream and the gateway's sharded derive all fit it, so the HTTP
// machinery around them lives once, in Server.stream.
type streamEngine func(ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions) (StreamStats, error)

// stream wraps an engine as a streaming HTTP handler: NDJSON request lines
// in, NDJSON result rows out in input order, flushed whenever the emitter
// would wait, with memory O(workers + window) rather than O(batch). A
// ?workers=N query asks for a per-stream pool under the same rule as the
// buffered endpoints' workers field (Server.workers).
//
// The stream holds one in-flight slot for its whole life and runs under the
// usual compute budget; an expiry or client disconnect cancels the
// computations mid-stream. Since the 200 status is on the wire before the
// first row, failures past that point are reported in-band: per-row error
// rows, plus a terminal Index −1 row when the budget kills the stream.
func (s *Server) stream(op string, lat *obs.Histogram, engine streamEngine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		requested := 0
		if q := r.URL.Query().Get("workers"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid workers value %q", q))
				return
			}
			requested = n
		}
		// The stream's span: a replica serving a gateway sub-stream finds
		// the gateway's trace ID in the obs.TraceHeader and records its
		// whole side of the exchange as a child span.
		ctx, tr, end := s.begin(r, op, lat, start)
		defer end()
		// The whole stream occupies one in-flight slot (its internal
		// fan-out is bounded by workers).
		if !s.acquire(ctx, w) {
			return
		}
		defer s.release(&s.streams)
		// HTTP/1 servers close the request body on the first response write by
		// default; this handler's whole point is interleaving body reads with
		// row writes. (HTTP/2 is full-duplex anyway and may report an error.)
		rc := http.NewResponseController(w)
		_ = rc.EnableFullDuplex()
		// The engine only returns once nothing touches the body any more, so
		// a cancellation must also fail any read the decoder is blocked in —
		// otherwise a stalled-but-connected client would pin the stream past
		// its budget.
		var kickMu sync.Mutex
		engineDone := false
		stopKick := context.AfterFunc(ctx, func() {
			kickMu.Lock()
			defer kickMu.Unlock()
			if !engineDone {
				_ = rc.SetReadDeadline(time.Now())
			}
		})
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fw := newFlushWriter(w)
		stats, err := engine(ctx, r.Body, fw, StreamOptions{Workers: s.workers(requested)})
		// After the handler the server drains the unread rest of the body
		// (up to 256 KiB) to keep the connection. Under the kicked deadline
		// that drain fails at once without marking the body closed early,
		// so the server kept the connection, parsed the leftover request
		// lines as the next request and wrote a 400 that the client read
		// as the reply to its next request on that connection. A kicked
		// stream gets a fresh, bounded window for the drain instead.
		kickMu.Lock()
		engineDone = true
		kickMu.Unlock()
		if !stopKick() {
			_ = rc.SetReadDeadline(time.Now().Add(drainTimeout))
			// The drain must run while the handler does. Left to the server,
			// it ends after the server aborted the connection's pending
			// read, and reaching EOF there starts a background read that the
			// next request's read collides with: "invalid concurrent
			// Body.Read call". Full-duplex mode skips the server's own
			// pre-response drain, so this is the body's first close. It
			// waits on the client, so the rows written by then, the
			// terminal row included, are flushed first.
			defer func() {
				fw.flush()
				_ = r.Body.Close()
			}()
		}
		tr.AddRows(stats.RowsOut)
		s.rowsIn.Add(uint64(stats.RowsIn))
		s.rowsOut.Add(uint64(stats.RowsOut))
		if err == nil {
			return
		}
		s.streamCancelled.Add(1)
		if s.countCancellation(ctx, err) {
			// A disconnected client cannot be told anything; a budget kill
			// still can, in-band.
			_ = EncodeResult(fw, StreamRow{Index: -1,
				Error: fmt.Sprintf("stream exceeded the %s compute budget", s.cfg.Timeout)})
		}
	}
}

// RequestError is the typed error of the request codec: every decode or
// validation failure of a derive/allocate payload — buffered or streamed —
// unwraps to one, so hardened callers (and the fuzz harness) can tell
// malformed input apart from infrastructure failures.
type RequestError struct {
	App string // offending app name, when known
	Err error
}

// Error implements error. The app prefix is added unless the message
// already carries the quoted name (core's validation errors do), so short
// names matching an incidental substring don't lose their attribution.
func (e *RequestError) Error() string {
	if e.App != "" && !strings.Contains(e.Err.Error(), strconv.Quote(e.App)) {
		return fmt.Sprintf("app %q: %v", e.App, e.Err)
	}
	return e.Err.Error()
}

// Unwrap exposes the underlying cause.
func (e *RequestError) Unwrap() error { return e.Err }
