package obs

import (
	"context"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader carries a parent trace ID across gateway→replica hops. The
// gateway sets it once on each persistent NDJSON sub-stream it opens; the
// replica serving that sub-stream records its whole side of the exchange
// as one child span whose Parent is the header value. The grammar is the
// bare 16-hex-digit trace ID — nothing else rides in the header, so a
// missing or malformed value degrades to an untraced request.
const TraceHeader = "X-Cpsdyn-Trace"

// Stage identifies one fixed pipeline stage inside a trace. The set is
// closed on purpose: per-stage accumulators live in a fixed array of
// atomics, so recording a stage is lock-free and allocation-free no
// matter how many rows a stream pushes through it.
type Stage int

const (
	// StageDecode is request decoding: the buffered JSON body or each
	// NDJSON request line.
	StageDecode Stage = iota
	// StageCacheLookup is time spent resolving in-memory derivation-cache
	// entries, hits and single-flight waits alike.
	StageCacheLookup
	// StageDiskLoad is persistent-store read-through on memory misses.
	StageDiskLoad
	// StageDiscretize is discretisation compute (the Van Loan augmented
	// matrix exponentials) on cache misses.
	StageDiscretize
	// StageCurveSample is exhaustive dwell-curve simulation on cache
	// misses.
	StageCurveSample
	// StageEncode is response encoding: the buffered JSON reply or each
	// NDJSON result row.
	StageEncode
	// StagePeerRoundTrip is a gateway row's round trip to a shard owner
	// over its persistent sub-stream.
	StagePeerRoundTrip
	// StageSearch is a calibration's pole-radius searches: every settling
	// probe of one application's TT and ET bisections.
	StageSearch

	// NumStages bounds the per-trace accumulator arrays.
	NumStages int = iota
)

var stageNames = [NumStages]string{
	"decode", "cacheLookup", "diskLoad", "discretize", "curveSample",
	"encode", "peerRoundTrip", "search",
}

// String returns the stage's wire name as it appears in /tracez.
func (s Stage) String() string {
	if s < 0 || int(s) >= NumStages {
		return "stage(" + strconv.Itoa(int(s)) + ")"
	}
	return stageNames[s]
}

// Trace is one request-scoped span: an ID, an optional parent (set when
// the request arrived with a TraceHeader), the operation name, and
// lock-free per-stage time/count accumulators. Stages are aggregated, not
// listed per row, so a million-row stream still produces a fixed-size
// trace. All recording methods are safe on a nil *Trace — an untraced
// context costs exactly one nil check per hook.
type Trace struct {
	ID     string
	Parent string
	Op     string
	Start  time.Time

	rows         atomic.Int64
	simSteps     atomic.Uint64
	certRefusals atomic.Uint64
	counts       [NumStages]atomic.Uint64
	ns           [NumStages]atomic.Int64
}

// NewTrace starts a span. parent is the inbound TraceHeader value, or ""
// for a root span. IDs are 16 hex digits of process-local randomness —
// unique enough to join a /tracez entry against the log stream, with no
// coordination cost.
func NewTrace(op, parent string) *Trace {
	return &Trace{
		ID:     strconv.FormatUint(rand.Uint64(), 16),
		Parent: parent,
		Op:     op,
		Start:  time.Now(),
	}
}

// StageAdd records d spent in stage s.
//
//cpsdyn:allocfree
func (t *Trace) StageAdd(s Stage, d time.Duration) {
	if t == nil || s < 0 || int(s) >= NumStages {
		return
	}
	if d < 0 {
		d = 0
	}
	t.counts[s].Add(1)
	t.ns[s].Add(int64(d))
}

// StageSince is StageAdd(s, time.Since(t0)) — the call-site one-liner.
func (t *Trace) StageSince(s Stage, t0 time.Time) {
	if t == nil {
		return
	}
	t.StageAdd(s, time.Since(t0))
}

// AddRows counts result rows attributed to the span (stream rows, or the
// batch application count).
func (t *Trace) AddRows(n int) {
	if t == nil {
		return
	}
	t.rows.Add(int64(n))
}

// AddSimSteps counts closed-loop simulation steps paid for by the span's
// request; the settling walks report them at the same flush points as the
// process-wide switching.SimSteps counter.
//
//cpsdyn:allocfree called from the settle hot path
func (t *Trace) AddSimSteps(n uint64) {
	if t == nil {
		return
	}
	t.simSteps.Add(n)
}

// AddCertRefusals counts loop matrices of the span's request that got no
// stop certificate (switching.CertRefusals counts them process-wide).
func (t *Trace) AddCertRefusals(n uint64) {
	if t == nil {
		return
	}
	t.certRefusals.Add(n)
}

// StageBreakdown is one aggregated stage line of a finished trace.
type StageBreakdown struct {
	Stage   string  `json:"stage"`
	Count   uint64  `json:"count"`
	Seconds float64 `json:"seconds"`
}

// TraceSnapshot is a finished trace as served by /tracez.
type TraceSnapshot struct {
	ID      string    `json:"id"`
	Parent  string    `json:"parent,omitempty"`
	Op      string    `json:"op"`
	Start   time.Time `json:"start"`
	Seconds float64   `json:"seconds"`
	Rows    int64     `json:"rows,omitempty"`
	// SimSteps is the number of simulation steps the request's cache
	// misses ran; a warm request ran none.
	SimSteps uint64 `json:"simSteps,omitempty"`
	// CertRefusals is the number of loop matrices of the request's cache
	// misses without a stop certificate, whose settling walks ran to the
	// horizon.
	CertRefusals uint64           `json:"certRefusals,omitempty"`
	Stages       []StageBreakdown `json:"stages"`
}

// Finish closes the span and returns its snapshot, with stages ordered
// slowest-first. Returns the zero snapshot on a nil receiver.
func (t *Trace) Finish() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	ts := TraceSnapshot{
		ID:           t.ID,
		Parent:       t.Parent,
		Op:           t.Op,
		Start:        t.Start,
		Seconds:      time.Since(t.Start).Seconds(),
		Rows:         t.rows.Load(),
		SimSteps:     t.simSteps.Load(),
		CertRefusals: t.certRefusals.Load(),
	}
	for s := 0; s < NumStages; s++ {
		n := t.counts[s].Load()
		if n == 0 {
			continue
		}
		ts.Stages = append(ts.Stages, StageBreakdown{
			Stage:   Stage(s).String(),
			Count:   n,
			Seconds: float64(t.ns[s].Load()) / 1e9,
		})
	}
	sort.SliceStable(ts.Stages, func(i, j int) bool {
		return ts.Stages[i].Seconds > ts.Stages[j].Seconds
	})
	return ts
}

type traceKey struct{}

// WithTrace attaches t to the context. Attaching nil is a no-op, so call
// sites need no tracing-enabled branch of their own.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the context's trace, or nil — and every *Trace
// method accepts nil, so callers chain obs.FromContext(ctx).StageSince(…)
// unconditionally. A nil context is accepted (the derivation cache allows
// one) and carries no trace.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// ringCapacity is the number of finished traces a Ring retains.
const ringCapacity = 256

// Ring is a bounded ring of recently finished traces: constant memory,
// newest overwrites oldest. It is the storage behind GET /tracez.
type Ring struct {
	mu   sync.Mutex
	buf  []TraceSnapshot
	next int
	full bool
}

// NewRing returns a ring retaining the last 256 finished traces.
func NewRing() *Ring {
	return &Ring{buf: make([]TraceSnapshot, ringCapacity)}
}

// Add records one finished trace, evicting the oldest when full.
func (r *Ring) Add(ts TraceSnapshot) {
	r.mu.Lock()
	r.buf[r.next] = ts
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Snapshot returns the retained traces ordered slowest-first (ties
// broken newest-first, so a burst of equal traces reads most-recent
// forward).
func (r *Ring) Snapshot() []TraceSnapshot {
	r.mu.Lock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]TraceSnapshot, n)
	copy(out, r.buf[:n])
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Start.After(out[j].Start)
	})
	return out
}
