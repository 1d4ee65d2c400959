package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	"cpsdyn/internal/sched"
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
// skipped. maxLine bounds one line's byte length (≤ 0 selects 8 MiB).
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
		maxLine = 8 << 20
	}
	return func(yield func(Line[T]) bool) {
		sc := bufio.NewScanner(r)
		// The scanner's cap is max(limit, cap(buf)) — the initial buffer
		// must not exceed the line limit or small limits are ignored.
		initial := int64(64 << 10)
		if initial > maxLine {
			initial = maxLine
		}
		sc.Buffer(make([]byte, 0, initial), int(maxLine))
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
// followed by a newline. It is the response half of the streaming codec;
// callers that need the row on the wire immediately (the HTTP handler)
// flush after each call.
func EncodeResult(w io.Writer, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding result row: %w", err)
	}
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
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

// StreamOptions tunes a streaming derivation or allocation run.
type StreamOptions struct {
	// Workers bounds the per-stream derivation pool (≤ 0 = GOMAXPROCS).
	Workers int
	// Window bounds how many rows may be in flight (derived out of order,
	// waiting for in-order emission) — the peak response-side buffering,
	// independent of stream length. ≤ 0 selects 2 × workers.
	Window int
	// MaxLine bounds one request line's byte length (≤ 0 = 8 MiB).
	MaxLine int64
}

func (o StreamOptions) window(workers int) int {
	w := o.Window
	if w <= 0 {
		w = 2 * workers
	}
	if w < workers {
		// conc.StreamOrdered raises any smaller window to the worker count;
		// resolving the clamp here keeps /statsz introspection honest about
		// the window streams actually run with.
		w = workers
	}
	return w
}

// deriveSource decodes the request half of a derive stream: one
// DeriveAppSpec per line, counted into stats, with the buffered /v1/derive
// path's duplicate-name discipline applied in the (sequential) source
// iterator, so no locking. Error lines keep their name slot: only
// successfully decoded specs claim a name. The seen set is the one per-row
// retention of the stream — names only, a few bytes per row, not rows or
// results. Shared by DeriveStream and the gateway's sharded engine.
func deriveSource(r io.Reader, maxLine int64, stats *StreamStats, tr *obs.Trace) iter.Seq[Line[DeriveAppSpec]] {
	seen := make(map[string]bool)
	return func(yield func(Line[DeriveAppSpec]) bool) {
		for ln := range countingSource[DeriveAppSpec](r, maxLine, stats, tr) {
			if ln.Val != nil {
				if seen[ln.Val.Name] {
					ln = Line[DeriveAppSpec]{Index: ln.Index, Err: &RequestError{
						App: ln.Val.Name,
						Err: fmt.Errorf("duplicate app name %q", ln.Val.Name)}}
				} else {
					seen[ln.Val.Name] = true
				}
			}
			if !yield(ln) {
				return
			}
		}
	}
}

// countingSource decodes one T per NDJSON line, counting rows into stats —
// the request half shared by the engines with no extra per-line discipline
// (deriveSource layers the duplicate-name check on top of the same shape).
func countingSource[T any](r io.Reader, maxLine int64, stats *StreamStats, tr *obs.Trace) iter.Seq[Line[T]] {
	return func(yield func(Line[T]) bool) {
		for ln := range decodeLines[T](r, maxLine, tr) {
			stats.RowsIn++
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
	return func(_ int, row R) error {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		if err := EncodeResult(w, row); err != nil {
			return err
		}
		if tr != nil {
			tr.StageSince(obs.StageEncode, t0)
		}
		stats.RowsOut++
		return nil
	}
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
	var stats StreamStats
	tr := obs.FromContext(ctx)
	err := conc.StreamOrdered(ctx, opts.Workers, opts.window(effectiveWorkers(opts.Workers)),
		deriveSource(r, opts.MaxLine, &stats, tr),
		deriveStreamRow,
		encodeSink[StreamRow](w, &stats, tr))
	return stats, err
}

// deriveStreamRow computes one stream row: compile the spec, derive it on
// the shared memo cache, flatten to the wire row. Failures become error
// rows; a panicking derivation (validation gaps on adversarial input) fails
// its own row, not the stream.
func deriveStreamRow(ctx context.Context, i int, ln Line[DeriveAppSpec]) (row StreamRow) {
	row.Index = ln.Index
	defer func() {
		if r := recover(); r != nil {
			row.Result, row.Error = nil, fmt.Sprintf("internal error: %v", r)
		}
	}()
	if ln.Err != nil {
		row.Error = ln.Err.Error()
		return row
	}
	app, err := ln.Val.application(ln.Index) // failures are self-naming *RequestErrors
	if err != nil {
		row.Error = err.Error()
		return row
	}
	d, err := app.DeriveContext(ctx)
	if err != nil {
		row.Error = err.Error()
		row.Cancelled = isCancellation(err)
		return row
	}
	res := deriveResult(d)
	row.Result = &res
	return row
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
// bounded worker pool. It backs slotalloc -stream.
func AllocateStream(ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions) (StreamStats, error) {
	var stats StreamStats
	tr := obs.FromContext(ctx)
	err := conc.StreamOrdered(ctx, opts.Workers, opts.window(effectiveWorkers(opts.Workers)),
		countingSource[FleetRequest](r, opts.MaxLine, &stats, tr),
		allocateStreamRow,
		encodeSink[FleetStreamRow](w, &stats, tr))
	return stats, err
}

// allocateStreamRow allocates one fleet line under ctx: the heuristics
// are quick arithmetic, and an exact search stops once ctx expires, which
// makes the row an error row (the pool stops dispatching rows too).
func allocateStreamRow(ctx context.Context, _ int, ln Line[FleetRequest]) (row FleetStreamRow) {
	row.Index = ln.Index
	defer func() {
		if r := recover(); r != nil {
			row.Fleet, row.Error = nil, fmt.Sprintf("internal error: %v", r)
		}
	}()
	if ln.Err != nil {
		row.Error = ln.Err.Error()
		return row
	}
	spec, unsafe, err := ln.Val.spec() // failures are self-describing *RequestErrors
	if err != nil {
		row.Error = err.Error()
		return row
	}
	res := &FleetResult{Name: ln.Val.Name}
	row.Fleet = res
	var al *sched.Allocation
	if spec.Race {
		al, err = sched.AllocateRace(spec.Apps, nil, spec.Method)
	} else {
		al, err = sched.AllocateContext(ctx, spec.Apps, spec.Policy, spec.Method)
	}
	if isCancellation(err) {
		row.Fleet, row.Error = nil, err.Error()
		return row
	}
	if err != nil {
		res.Error = err.Error() // infeasible fleet: in-band, like the batch path
		return row
	}
	if err := fillFleetResult(res, ln.Val, al, unsafe); err != nil {
		row.Fleet, row.Error = nil, err.Error()
	}
	return row
}

// effectiveWorkers resolves a worker bound the way the pools do.
func effectiveWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// flushWriter pushes every written row onto the wire immediately, so the
// client sees result rows as derivations complete instead of when the
// stream ends.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func newFlushWriter(w http.ResponseWriter) *flushWriter {
	f, _ := w.(http.Flusher)
	return &flushWriter{w: w, f: f}
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if err == nil && fw.f != nil {
		fw.f.Flush()
	}
	return n, err
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
// in, NDJSON result rows out in input order, one row flushed per
// computation, with memory O(workers + window) rather than O(batch). A
// ?workers=N query bounds the per-stream pool below the operator's ceiling,
// exactly like the buffered endpoints' workers field.
//
// The stream holds one in-flight slot for its whole life and runs under the
// usual compute budget; an expiry or client disconnect cancels the
// computations mid-stream. Since the 200 status is on the wire before the
// first row, failures past that point are reported in-band: per-row error
// rows, plus a terminal Index −1 row when the budget kills the stream.
func (s *Server) stream(op string, lat *obs.Histogram, engine streamEngine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		workers := s.cfg.Workers
		if q := r.URL.Query().Get("workers"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("invalid workers value %q", q))
				return
			}
			// The operator's -workers flag is a ceiling, not a default; with no
			// flag the ceiling is GOMAXPROCS. Unlike the buffered endpoints there
			// is no app count to clamp against — the pool and window are
			// allocated before the first line is read — so an unbounded client
			// value would be a trivial memory DoS.
			if n > 0 && n <= effectiveWorkers(s.cfg.Workers) {
				workers = n
			}
		}
		// The stream's span: a replica serving a gateway sub-stream finds
		// the gateway's trace ID in the obs.TraceHeader and records its
		// whole side of the exchange as a child span.
		tr := obs.NewTrace(op, r.Header.Get(obs.TraceHeader))
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		ctx = obs.WithTrace(ctx, tr)
		defer func() {
			lat.Since(start)
			s.finishTrace(ctx, tr)
		}()
		// The whole stream occupies one in-flight slot (its internal fan-out is
		// bounded by workers), with the same free-slot preference as compute.
		select {
		case s.sem <- struct{}{}:
		default:
			select {
			case s.sem <- struct{}{}:
			case <-ctx.Done():
				if errors.Is(ctx.Err(), context.DeadlineExceeded) {
					s.rejected.Add(1)
				}
				writeError(w, http.StatusServiceUnavailable,
					fmt.Errorf("server busy: %d requests in flight", s.inFlight.Load()))
				return
			}
		}
		s.inFlight.Add(1)
		defer func() {
			s.inFlight.Add(-1)
			s.streams.Add(1)
			<-s.sem
		}()
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
		stats, err := engine(ctx, r.Body, fw, StreamOptions{
			Workers: workers,
			Window:  s.cfg.StreamWindow,
			MaxLine: s.cfg.MaxBodyBytes,
		})
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
		}
		tr.AddRows(stats.RowsOut)
		s.rowsIn.Add(uint64(stats.RowsIn))
		s.rowsOut.Add(uint64(stats.RowsOut))
		if err == nil {
			return
		}
		s.streamCancelled.Add(1)
		if isCancellation(err) {
			s.cancelled.Add(1)
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				s.timedOut.Add(1)
				// A disconnected client cannot be told anything; a budget kill
				// still can, in-band.
				_ = EncodeResult(fw, StreamRow{Index: -1,
					Error: fmt.Sprintf("stream exceeded the %s compute budget", s.cfg.Timeout)})
			}
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
