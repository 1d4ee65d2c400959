package conc

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ints yields 0..n-1, counting how far the source was advanced.
func ints(n int, read *atomic.Int64) iter.Seq[int] {
	return func(yield func(int) bool) {
		for i := 0; i < n; i++ {
			if read != nil {
				read.Add(1)
			}
			if !yield(i) {
				return
			}
		}
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 37
		var counts [n]atomic.Int32
		if err := ForEachCtx(context.Background(), n, workers, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	for _, n := range []int{0, -1} {
		if err := ForEachCtx(context.Background(), n, 4, func(int) error {
			t.Errorf("fn called for n=%d", n)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// The reported error must be the lowest failed index's error — exactly what
// a sequential loop would have surfaced — regardless of worker count.
func TestForEachCtxReportsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		err := ForEachCtx(context.Background(), 100, workers, func(i int) error {
			if i == 17 || i == 63 {
				return fmt.Errorf("fail %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail 17" {
			t.Fatalf("workers=%d: err = %v, want fail 17", workers, err)
		}
	}
}

// An error stops the dispatch of further indices (in-flight ones finish).
func TestForEachCtxStopsDispatchOnError(t *testing.T) {
	var visited atomic.Int32
	err := ForEachCtx(context.Background(), 10000, 2, func(i int) error {
		visited.Add(1)
		if i == 0 {
			return errors.New("early")
		}
		return nil
	})
	if err == nil || err.Error() != "early" {
		t.Fatalf("err = %v", err)
	}
	if v := visited.Load(); v == 10000 {
		t.Fatal("error did not stop the dispatch")
	}
}

// Cancellation stops dispatch and surfaces ctx.Err(), even when some fn
// calls also failed.
func TestForEachCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var visited atomic.Int32
	err := ForEachCtx(ctx, 100000, 2, func(i int) error {
		if visited.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if v := visited.Load(); v == 100000 {
		t.Fatal("cancellation did not stop the dispatch")
	}
}

// A pre-cancelled context runs no index, whichever case the feeder's
// select would pick: the build before the feeder checked for cancellation
// called fn once in 2 000 runs of four items on two workers.
func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var called atomic.Int32
	for run := 0; run < 10000; run++ {
		err := ForEachCtx(ctx, 4, 2, func(int) error { called.Add(1); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want context.Canceled", run, err)
		}
	}
	if n := called.Load(); n != 0 {
		t.Fatalf("fn called %d times in 10 000 pre-cancelled runs", n)
	}
}

// Once index 0 fails on the only worker, no later index runs: the feeder
// offering index 1 may find the worker ready and the stop channel closed
// at once, and the worker skips what it receives after the failure.
func TestForEachCtxErrorStopsLaterIndices(t *testing.T) {
	for run := 0; run < 2000; run++ {
		var later atomic.Int32
		err := ForEachCtx(context.Background(), 8, 1, func(i int) error {
			if i == 0 {
				return errors.New("index 0")
			}
			later.Add(1)
			return nil
		})
		if err == nil || err.Error() != "index 0" {
			t.Fatalf("run %d: err = %v, want index 0's", run, err)
		}
		if n := later.Load(); n != 0 {
			t.Fatalf("run %d: %d later indices ran after index 0 failed", run, n)
		}
	}
}

// Worker indices are within [0, workers) and stable per goroutine, so
// callers can maintain per-worker scratch buffers without locks.
func TestForEachWorkerCtxWorkerIndexes(t *testing.T) {
	const workers, n = 4, 200
	scratch := make([]int, workers) // one slot per worker; no mutex needed
	var mu sync.Mutex
	seen := map[int]bool{}
	err := ForEachWorkerCtx(context.Background(), n, workers, func(w, i int) error {
		if w < 0 || w >= workers {
			return fmt.Errorf("worker index %d out of range", w)
		}
		scratch[w]++ // races iff two goroutines share a worker index
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("visited %d indices, want %d", len(seen), n)
	}
	total := 0
	for _, c := range scratch {
		total += c
	}
	if total != n {
		t.Fatalf("per-worker counts sum to %d, want %d", total, n)
	}
}

// Results arrive strictly in input order for any worker count, even though
// the pool computes them out of order.
func TestStreamOrderedEmitsInOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 200
		var got []int
		err := StreamOrdered(context.Background(), workers, 0, ints(n, nil),
			func(_ context.Context, i, item int) int {
				if i != item {
					t.Errorf("fn index %d for item %d", i, item)
				}
				// Earlier items sleeping longer maximises reordering pressure.
				if item < 10 {
					time.Sleep(time.Duration(10-item) * time.Millisecond)
				}
				return item * item
			},
			func(i, r int) error {
				got = append(got, r)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: emitted %d results, want %d", workers, len(got), n)
		}
		for i, r := range got {
			if r != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d (order broken)", workers, i, r, i*i)
			}
		}
	}
}

// The window bounds how far the source runs ahead of emission — the
// backpressure that keeps stream memory O(workers + window).
func TestStreamOrderedBoundsReadAhead(t *testing.T) {
	const n, workers, window = 500, 2, 4
	var read, emitted, peak atomic.Int64
	err := StreamOrdered(context.Background(), workers, window, ints(n, &read),
		func(_ context.Context, _, item int) int {
			for {
				ahead := read.Load() - emitted.Load()
				p := peak.Load()
				if ahead <= p || peak.CompareAndSwap(p, ahead) {
					break
				}
			}
			return item
		},
		func(_, r int) error {
			emitted.Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > window {
		t.Fatalf("source ran %d items ahead of emission, want ≤ %d", p, window)
	}
}

// A stream allocates nothing per row: 64 rows cost no more allocations than
// one, whatever the set-up (context, pull iterator, ring, workers) costs.
func TestStreamOrderedAllocatesNothingPerRow(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(50, func() {
			err := StreamOrdered(context.Background(), 2, 4, ints(n, nil),
				func(_ context.Context, _, item int) int { return item },
				func(int, int) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(64); many > one {
		t.Fatalf("a 64-row stream allocates %v times, a 1-row stream %v: %.2f per row", many, one, (many-one)/63)
	}
}

// An emit failure (the client hung up mid-stream) stops the pipeline: the
// error comes back and the source is not drained.
func TestStreamOrderedEmitErrorStops(t *testing.T) {
	const n = 100000
	var read atomic.Int64
	boom := errors.New("broken pipe")
	err := StreamOrdered(context.Background(), 2, 4, ints(n, &read),
		func(_ context.Context, _, item int) int { return item },
		func(i, _ int) error {
			if i == 10 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if r := read.Load(); r == n {
		t.Fatal("emit error did not stop the source")
	}
}

// Cancellation mid-stream surfaces ctx.Err() and stops reading the source.
func TestStreamOrderedCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 100000
	var read atomic.Int64
	err := StreamOrdered(ctx, 2, 4, ints(n, &read),
		func(ctx context.Context, _, item int) int { return item },
		func(i, _ int) error {
			if i == 5 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r := read.Load(); r == n {
		t.Fatal("cancellation did not stop the source")
	}
}

// A successful run over an already-cancelled context still reports the
// cancellation; an empty source is fine either way.
func TestStreamOrderedEdgeCases(t *testing.T) {
	if err := StreamOrdered(context.Background(), 4, 0, ints(0, nil),
		func(_ context.Context, _, item int) int { return item },
		func(int, int) error { t.Fatal("emit called for empty source"); return nil },
	); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := StreamOrdered(ctx, 4, 0, ints(10, nil),
		func(_ context.Context, _, item int) int { return item },
		func(int, int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The idle hook runs before every block. The source yields item k only
// after the emitter went idle past row k−1, and fn(k) returns only after
// the emitter went idle waiting for it, so a missing call deadlocks the
// stream; the exact event sequence rules out extra calls.
func TestStreamOrderedIdleBeforeEveryBlock(t *testing.T) {
	const n = 20
	in := make(chan int)
	src := func(yield func(int) bool) {
		for item := range in {
			if !yield(item) {
				return
			}
		}
	}
	gates := make([]chan struct{}, n)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	events := make(chan string)
	done := make(chan error, 1)
	go func() {
		done <- StreamOrdered(context.Background(), 2, 0, src,
			func(_ context.Context, i, item int) int {
				<-gates[i]
				return item
			},
			func(i, _ int) error {
				events <- fmt.Sprintf("emit %d", i)
				return nil
			},
			func() { events <- "idle" })
	}()
	expect := func(want string) {
		t.Helper()
		select {
		case got := <-events:
			if got != want {
				t.Fatalf("event %q, want %q", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no %q event: the emitter blocked without calling the hook", want)
		}
	}
	for k := 0; k < n; k++ {
		expect("idle") // waiting for item k to leave the source
		in <- k
		expect("idle") // waiting for fn(k)
		close(gates[k])
		expect(fmt.Sprintf("emit %d", k))
	}
	expect("idle")
	close(in)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// The idle hook never runs between two results that are both ready. With
// one worker, fn(n) starts only after results 0..n−1 were delivered, and
// emit(0) waits for it, so rows 1..n−1 are all ready when the emitter
// reaches them.
func TestStreamOrderedNoIdleBetweenReadyResults(t *testing.T) {
	const n = 50
	allSent := make(chan struct{})
	var events []string // emit and idle both run on this goroutine
	err := StreamOrdered(context.Background(), 1, n+1, ints(n+1, nil),
		func(_ context.Context, i, item int) int {
			if i == n {
				close(allSent)
			}
			return item
		},
		func(i, _ int) error {
			if i == 0 {
				<-allSent
			}
			events = append(events, fmt.Sprintf("emit %d", i))
			return nil
		},
		func() { events = append(events, "idle") })
	if err != nil {
		t.Fatal(err)
	}
	first := -1
	for j, e := range events {
		if e == "emit 0" {
			first = j
			break
		}
	}
	if first < 0 || len(events) < first+n {
		t.Fatalf("events %v", events)
	}
	for j, e := range events[first : first+n] {
		if want := fmt.Sprintf("emit %d", j); e != want {
			t.Fatalf("event %d after emit 0 is %q, want %q: %v", j, e, want, events)
		}
	}
}

// The pool must not exceed the requested width.
func TestForEachWorkerCtxBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	err := ForEachWorkerCtx(context.Background(), 100, workers, func(_, _ int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

// goid returns the calling goroutine's id, read from its stack header.
func goid() string {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return f[1] // "goroutine <id> [running]:"
}

// A pool of one runs every index on the calling goroutine and starts no
// goroutine; a wider pool's worker 0 is the caller too.
func TestForEachWorkerCtxOneWorkerStartsNoGoroutine(t *testing.T) {
	caller, before := goid(), runtime.NumGoroutine()
	for _, workers := range []int{1, 2} {
		var onCaller atomic.Int32
		err := ForEachWorkerCtx(context.Background(), 5, workers, func(w, i int) error {
			if (goid() == caller) != (w == 0) {
				t.Errorf("workers=%d: index %d ran on worker %d, goroutine %s (caller %s)", workers, i, w, goid(), caller)
			}
			if w == 0 {
				onCaller.Add(1)
			}
			if workers == 1 && runtime.NumGoroutine() > before {
				t.Errorf("index %d: %d goroutines, %d before the call", i, runtime.NumGoroutine(), before)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 && onCaller.Load() != 5 {
			t.Fatalf("%d of 5 indices ran on the caller", onCaller.Load())
		}
	}
}

// A panic in fn on worker 0, the caller, stops the other workers at their
// next index and reaches the caller only once they have exited: each of
// them is still inside its first call when worker 0 panics, and is let go
// only afterwards.
func TestForEachWorkerCtxPanicWaitsForWorkers(t *testing.T) {
	const workers = 4
	var inFlight, ran atomic.Int32
	started := make(chan struct{}, workers)
	release := make(chan struct{})
	var got any
	func() {
		defer func() { got = recover() }()
		_ = ForEachWorkerCtx(context.Background(), 1000, workers, func(w, _ int) error {
			if w == 0 {
				for range workers - 1 {
					<-started
				}
				time.AfterFunc(20*time.Millisecond, func() { close(release) })
				panic("boom")
			}
			inFlight.Add(1)
			defer inFlight.Add(-1)
			select {
			case started <- struct{}{}:
			default: // a worker that did not stop
			}
			<-release
			ran.Add(1)
			return nil
		})
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want boom", got)
	}
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("the panic reached the caller with %d calls still running", n)
	}
	if n := ran.Load(); n != workers-1 {
		t.Fatalf("the other workers ran %d indices, want %d: one each, then stop", n, workers-1)
	}
}
