package obs

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 0}, // sub-µs remainder truncates
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},    // 1024 µs > 512 µs ⇒ le=1024 µs bucket
		{time.Second, 20},         // 1e6 µs ≤ 2^20 µs
		{2147 * time.Second, 31},  // just under the top finite bound
		{3000 * time.Second, 32},  // overflow
		{1 << 62, NumBuckets - 1}, // absurd durations stay in range
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// The invariant the index encodes: d ≤ bound(i) and d > bound(i-1).
	for d := time.Microsecond; d < 10*time.Second; d = d*3 + 7 {
		i := bucketIndex(d)
		if sec := d.Seconds(); sec > BucketBound(i) {
			t.Errorf("d=%v lands in bucket %d with bound %g < d", d, i, BucketBound(i))
		}
		if i > 0 && d.Seconds() <= BucketBound(i-1) {
			t.Errorf("d=%v lands in bucket %d but fits bucket %d", d, i, i-1)
		}
	}
}

func TestBucketBound(t *testing.T) {
	if got := BucketBound(0); got != 1e-6 {
		t.Errorf("BucketBound(0) = %g, want 1e-6", got)
	}
	if got := BucketBound(10); got != 1024e-6 {
		t.Errorf("BucketBound(10) = %g, want 1024e-6", got)
	}
	if !math.IsInf(BucketBound(NumBuckets-1), 1) {
		t.Errorf("last bucket bound should be +Inf, got %g", BucketBound(NumBuckets-1))
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || len(s.Buckets) != 0 {
		t.Fatalf("zero histogram snapshot not empty: %+v", s)
	}
	h.Observe(1 * time.Microsecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(-time.Second) // clamps to 0 ⇒ first bucket
	s := h.Snapshot()
	if s.Count != 5 {
		t.Errorf("Count = %d, want 5", s.Count)
	}
	wantSum := (1*time.Microsecond + 3*time.Microsecond + 3*time.Microsecond + 2*time.Millisecond).Seconds()
	if math.Abs(s.Sum-wantSum) > 1e-12 {
		t.Errorf("Sum = %g, want %g", s.Sum, wantSum)
	}
	// Buckets are cumulative and monotone; the last one covers everything.
	var prev uint64
	for _, b := range s.Buckets {
		if b.N < prev {
			t.Errorf("bucket le=%g count %d < previous %d (not cumulative)", b.LE, b.N, prev)
		}
		prev = b.N
	}
	if prev != s.Count {
		t.Errorf("largest cumulative bucket %d != count %d", prev, s.Count)
	}
	// Two observations at 0/1µs, two at 3µs, one at 2ms: p50 inside the
	// 3µs bucket, p99 inside the 2ms bucket.
	if s.P50 <= 1e-6 || s.P50 > 4e-6 {
		t.Errorf("P50 = %g, want within (1µs, 4µs]", s.P50)
	}
	if s.P99 <= 1024e-6 || s.P99 > 2048e-6 {
		t.Errorf("P99 = %g, want within (1024µs, 2048µs]", s.P99)
	}
	if s.Max != BucketBound(11) {
		t.Errorf("Max = %g, want %g", s.Max, BucketBound(11))
	}
}

func TestHistogramOverflow(t *testing.T) {
	var h Histogram
	h.Observe(1 << 62) // far beyond the top finite bound
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("Count = %d, want 1", s.Count)
	}
	if len(s.Buckets) != 0 {
		t.Errorf("overflow-only snapshot lists finite buckets: %+v", s.Buckets)
	}
	if math.IsInf(s.Max, 1) || math.IsInf(s.P99, 1) {
		t.Errorf("snapshot leaks +Inf: max=%g p99=%g", s.Max, s.P99)
	}
}

// TestObserveAllocFree pins the acceptance criterion: the record path of
// a latency histogram performs zero allocations.
func TestObserveAllocFree(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(37 * time.Microsecond)
	}); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v objects/op, want 0", n)
	}
	tr := NewTrace("derive", "")
	if n := testing.AllocsPerRun(1000, func() {
		tr.StageAdd(StageCacheLookup, 3*time.Microsecond)
	}); n != 0 {
		t.Fatalf("Trace.StageAdd allocates %v objects/op, want 0", n)
	}
	var nilTrace *Trace
	if n := testing.AllocsPerRun(1000, func() {
		nilTrace.StageAdd(StageDecode, time.Microsecond)
		nilTrace.AddRows(1)
	}); n != 0 {
		t.Fatalf("nil-trace hooks allocate %v objects/op, want 0", n)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*per+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != goroutines*per {
		t.Fatalf("Count = %d, want %d", s.Count, goroutines*per)
	}
}

func TestTraceLifecycle(t *testing.T) {
	tr := NewTrace("derive/stream", "abc123")
	if tr.ID == "" || tr.ID == "abc123" {
		t.Fatalf("trace ID %q not freshly generated", tr.ID)
	}
	tr.StageAdd(StageDecode, 2*time.Millisecond)
	tr.StageAdd(StageDecode, 3*time.Millisecond)
	tr.StageAdd(StageCacheLookup, time.Millisecond)
	tr.StageSince(StageEncode, time.Now())
	tr.AddRows(42)
	ts := tr.Finish()
	if ts.ID != tr.ID || ts.Parent != "abc123" || ts.Op != "derive/stream" {
		t.Fatalf("snapshot identity mismatch: %+v", ts)
	}
	if ts.Rows != 42 {
		t.Errorf("Rows = %d, want 42", ts.Rows)
	}
	if len(ts.Stages) != 3 {
		t.Fatalf("Stages = %+v, want 3 entries", ts.Stages)
	}
	if ts.Stages[0].Stage != "decode" || ts.Stages[0].Count != 2 {
		t.Errorf("slowest stage = %+v, want decode ×2", ts.Stages[0])
	}
	for i := 1; i < len(ts.Stages); i++ {
		if ts.Stages[i].Seconds > ts.Stages[i-1].Seconds {
			t.Errorf("stages not slowest-first: %+v", ts.Stages)
		}
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.StageAdd(StageDecode, time.Second)
	tr.StageSince(StageEncode, time.Now())
	tr.AddRows(7)
	if ts := tr.Finish(); ts.ID != "" || len(ts.Stages) != 0 {
		t.Fatalf("nil trace Finish = %+v, want zero", ts)
	}
}

func TestStageString(t *testing.T) {
	if StageDiskLoad.String() != "diskLoad" {
		t.Errorf("StageDiskLoad = %q", StageDiskLoad.String())
	}
	if got := Stage(99).String(); got != "stage(99)" {
		t.Errorf("out-of-range stage = %q", got)
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty context carries a trace")
	}
	if WithTrace(ctx, nil) != ctx {
		t.Fatal("attaching nil should return the same context")
	}
	tr := NewTrace("allocate", "")
	if got := FromContext(WithTrace(ctx, tr)); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}
}

func TestRing(t *testing.T) {
	r := NewRing()
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot has %d entries", len(got))
	}
	add := func(id string, secs float64) {
		r.Add(TraceSnapshot{ID: id, Seconds: secs, Start: time.Now()})
	}
	add("a", 0.5)
	add("b", 2.0)
	if got := r.Snapshot(); len(got) != 2 || got[0].ID != "b" || got[1].ID != "a" {
		t.Fatalf("snapshot not slowest-first: %+v", got)
	}
	for i := 2; i < ringCapacity; i++ {
		add("filler", 0.1)
	}
	add("c", 1.0) // evicts "a"
	add("d", 3.0) // evicts "b"
	add("e", 0.2) // evicts the first filler
	got := r.Snapshot()
	if len(got) != ringCapacity {
		t.Fatalf("ring holds %d entries, want %d", len(got), ringCapacity)
	}
	if got[0].ID != "d" || got[1].ID != "c" || got[2].ID != "e" {
		t.Fatalf("snapshot order = %v, want d,c,e", []string{got[0].ID, got[1].ID, got[2].ID})
	}
	for _, ts := range got {
		if ts.ID == "a" || ts.ID == "b" {
			t.Fatalf("oldest entry %s not evicted", ts.ID)
		}
	}
}

func TestNewRingDefaultCapacity(t *testing.T) {
	r := NewRing()
	for i := 0; i < ringCapacity+10; i++ {
		r.Add(TraceSnapshot{Seconds: float64(i)})
	}
	if got := len(r.Snapshot()); got != ringCapacity {
		t.Fatalf("ring retains %d, want %d", got, ringCapacity)
	}
}
