// Package obs is the zero-dependency observability layer of the
// derivation pipeline: lock-free latency histograms, request-scoped traces
// with per-stage timings, and the bounded ring of recent traces behind
// cpsdynd's GET /tracez.
//
// The package is deliberately a leaf — stdlib only, imported by core,
// store, cluster and service — so instrumentation can ride along every hot
// path without creating import cycles or external dependencies. Recording
// is designed to cost nothing that matters on those paths: a histogram
// observation is two atomic adds on a fixed array (no allocation, pinned
// by an AllocsPerRun test), and every trace hook is a nil check when the
// context carries no trace.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the bucket count of every Histogram: 32 finite log-spaced
// buckets with upper bounds 2^i microseconds (1 µs … ~2147 s) plus one
// overflow bucket. Log spacing keeps relative error bounded (< 2×) across
// six orders of magnitude — the span between a warm cache hit and a cold
// 300-app derivation — with a fixed, allocation-free footprint.
const NumBuckets = 33

// Histogram is a lock-free log-spaced latency histogram: fixed atomic
// buckets, no allocation on the record path, safe for concurrent use. The
// zero value is ready to use. Count is derived from the buckets, so a
// snapshot's +Inf bucket always equals its count by construction.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	sumNS   atomic.Int64 // total observed nanoseconds
}

// bucketIndex maps a duration to its bucket: the smallest i with
// d ≤ 2^i µs, computed with one bit scan — no loop, no float math.
func bucketIndex(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	if us <= 1 {
		return 0
	}
	i := bits.Len64(us - 1) // 2^(i-1) < us ≤ 2^i
	if i > NumBuckets-2 {
		return NumBuckets - 1 // overflow
	}
	return i
}

// BucketBound returns bucket i's upper bound in seconds; the last bucket
// is unbounded (+Inf).
func BucketBound(i int) float64 {
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(i)) * 1e-6
}

// Observe records one latency. Negative durations clamp to zero (a clock
// step mid-measurement must not corrupt the distribution).
//
//cpsdyn:allocfree
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.sumNS.Add(int64(d))
}

// Since is Observe(time.Since(start)) — the one-liner for call sites.
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start)) }

// Bucket is one non-empty histogram bucket in a Snapshot. N is the
// cumulative count of observations ≤ LE (Prometheus bucket semantics), so
// a snapshot's buckets are monotone by construction. The unbounded
// overflow bucket is not listed — JSON cannot spell +Inf — its cumulative
// count is Snapshot.Count.
type Bucket struct {
	LE float64 `json:"le"` // upper bound, seconds
	N  uint64  `json:"n"`  // cumulative observations ≤ LE
}

// Snapshot is a consistent-enough copy of a histogram for /statsz and
// /metrics: total count and sum plus the non-empty cumulative buckets and
// interpolated quantile estimates. With no concurrent recording it is
// exact; under load each counter is individually exact but the set is not
// a single atomic cut, which is the usual Prometheus contract.
type Snapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"` // seconds
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
	Max     float64  `json:"max"` // upper bucket bound of the slowest observation
	Buckets []Bucket `json:"buckets"`
}

// Snapshot captures the histogram's current distribution.
func (h *Histogram) Snapshot() Snapshot {
	var counts [NumBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := Snapshot{
		Count:   total,
		Sum:     float64(h.sumNS.Load()) / 1e9,
		Buckets: []Bucket{},
	}
	var cum uint64
	for i, n := range counts {
		cum += n
		if n == 0 {
			continue
		}
		s.Max = BucketBound(i)
		if i < NumBuckets-1 {
			s.Buckets = append(s.Buckets, Bucket{LE: BucketBound(i), N: cum})
		}
	}
	if math.IsInf(s.Max, 1) {
		// The overflow bucket's bound is unbounded; report the largest
		// finite bound so the JSON stays spellable.
		s.Max = BucketBound(NumBuckets - 2)
	}
	s.P50 = quantile(&counts, total, 0.50)
	s.P90 = quantile(&counts, total, 0.90)
	s.P99 = quantile(&counts, total, 0.99)
	return s
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket holding the target rank — the same estimate Prometheus'
// histogram_quantile computes from the bucket series.
func quantile(counts *[NumBuckets]uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		prev := cum
		cum += float64(n)
		if cum < rank {
			continue
		}
		hi := BucketBound(i)
		if math.IsInf(hi, 1) {
			return BucketBound(NumBuckets - 2)
		}
		lo := 0.0
		if i > 0 {
			lo = BucketBound(i - 1)
		}
		return lo + (hi-lo)*(rank-prev)/float64(n)
	}
	return BucketBound(NumBuckets - 2)
}

// The pipeline histograms: process-wide like the derivation cache they
// instrument, recorded by core (per-row derivations), store (disk record
// loads and writes) and cluster (peer round trips), and exported by
// cpsdynd's /statsz and /metrics next to its per-endpoint request
// histograms.
var (
	// DeriveRowLatency is one application's derivation, one sample per
	// core DeriveContext call: validation, cache lookups, any disk
	// read-through or recomputation, model fits. Every derivation goes
	// through DeriveContext, so every one is recorded.
	DeriveRowLatency Histogram
	// StoreLoadLatency is one persistent-store record load attempt (read,
	// CRC validation, decode), hit or corrupt alike.
	StoreLoadLatency Histogram
	// StoreStoreLatency is one write-behind record persist (encode, temp
	// write, rename), measured in the background writer.
	StoreStoreLatency Histogram
	// PeerRTTLatency is one row's round trip to a replica over the
	// gateway's persistent sub-stream, successful exchanges only — a
	// timeout's duration is the watchdog bound, not a latency.
	PeerRTTLatency Histogram
)
