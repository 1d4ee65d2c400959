// Package conc holds the tiny concurrency idioms shared across the module,
// so the worker-pool plumbing lives (and gets fixed) in exactly one place.
package conc

import (
	"context"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachCtx runs fn(i) for every i in [0, n) across a bounded worker
// pool. workers ≤ 0 selects runtime.GOMAXPROCS(0); the pool never exceeds
// n. ForEachCtx returns once every call has finished. Once ctx is
// cancelled no further index runs (in-flight calls finish), so a
// pre-cancelled ctx runs none; once some fn returns a non-nil error, no
// further index is dispatched, and no index above the lowest failed one
// runs. It returns ctx.Err() when the
// context was cancelled, else the error of the lowest failed index.
// Indices are dispatched in order, so the lowest failed index among the
// dispatched ones matches what a sequential loop would have reported.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	return ForEachWorkerCtx(ctx, n, workers, func(_, i int) error { return fn(i) })
}

// ForEachWorkerCtx is ForEachCtx for callers that keep per-worker scratch
// state: fn additionally receives the worker index w in [0, workers), stable
// for the lifetime of that worker goroutine, so fn can reuse preallocated
// buffers without synchronisation. A nil ctx means no cancellation (the
// curve sampler passes SampleCurveOptions.Context through as it is).
func ForEachWorkerCtx(ctx context.Context, n, workers int, fn func(w, i int) error) error {
	ctxErr := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	if n <= 0 {
		return ctxErr()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	next := make(chan int)
	stop := make(chan struct{})
	// The state the workers share, in one allocation.
	var shared struct {
		wg       sync.WaitGroup
		stopOnce sync.Once
		lowest   atomic.Int64 // the lowest failed index so far; n while none
	}
	// A select picks at random among ready cases, so the feeder could hand
	// out an index after ctx was cancelled or some fn failed; it checks
	// both before every offer. A worker skips an index it receives once
	// ctx is cancelled, or once a lower index has failed: every index below
	// the lowest failure still runs, so the lowest failed index is the one
	// a sequential loop would have reported.
	lowest := &shared.lowest
	lowest.Store(int64(n))
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		shared.wg.Add(1)
		go func(w int) {
			defer shared.wg.Done()
			for i := range next {
				if closed(done) || int64(i) > lowest.Load() {
					continue
				}
				if err := fn(w, i); err != nil {
					errs[i] = err
					for low := lowest.Load(); int64(i) < low; low = lowest.Load() {
						if lowest.CompareAndSwap(low, int64(i)) {
							break
						}
					}
					shared.stopOnce.Do(func() { close(stop) })
				}
			}
		}(w)
	}
feed:
	for i := 0; i < n && !closed(done) && !closed(stop); i++ {
		select {
		case next <- i:
		case <-done:
			break feed
		case <-stop:
			break feed
		}
	}
	close(next)
	shared.wg.Wait()
	if err := ctxErr(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// closed reports, without blocking, whether c is closed; a nil c never
// is.
func closed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// StreamOrdered is the bounded streaming pipeline stage: it pulls items from
// src one at a time, applies fn to each across a bounded worker pool, and
// calls emit with the results strictly in input order even though fn runs
// out of order. It is the plumbing for NDJSON request/response streams,
// where the first result must reach the client while later inputs are still
// being read.
//
// Backpressure: at most window items are past src and not yet emitted
// (computing or waiting for an earlier item), so memory stays
// O(workers + window) no matter how long the stream is — src is simply not
// advanced while the window is full. workers ≤ 0 selects GOMAXPROCS;
// window < workers is raised to workers (a smaller window would idle the
// pool).
//
// Per-item failures are fn's business: fn returns a result value, so a
// caller that wants error rows embeds the error in R. Only two things stop
// the stream early: ctx expiring (StreamOrdered returns ctx.Err(); in-flight
// fn calls are expected to honour ctx and return promptly) and emit
// returning a non-nil error (returned as-is; no further items are read or
// emitted). fn receives the item's 0-based stream index and the ctx it must
// honour. emit is called from the calling goroutine only.
//
// idle hooks run on the calling goroutine too, right before the emitter
// would block: waiting for the next item to leave src, or for a result that
// is not computed yet. They never run between two results that are both
// ready. A caller that buffers what emit writes flushes it there, so no
// result waits behind a slow source or computation, and results that are
// ready together leave in one write.
//
// StreamOrdered does not return until src and every fn call have gone
// quiescent — nothing touches the source after it returns. The flip side: a
// src blocked in an uninterruptible read (a network body, say) delays that
// return, so a caller cancelling the stream must also arrange for the
// blocked read to fail (a read deadline, closing the underlying reader).
// ctx must not be nil.
func StreamOrdered[T, R any](ctx context.Context, workers, window int, src iter.Seq[T], fn func(ctx context.Context, i int, item T) R, emit func(i int, r R) error, idle ...func()) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if window < workers {
		window = workers
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Every item travels in a cell: the feeder queues cells on an ordered
	// channel (capacity = window, the backpressure bound) and hands them to
	// the worker pool; the emitter walks the ordered channel and waits for
	// each cell's result, which restores input order without unbounded
	// buffering. done has capacity 1 so a worker never blocks delivering a
	// result whose reader already gave up.
	type cell struct {
		i    int
		item T
		done chan R
	}
	cells := make(chan *cell, window)
	work := make(chan *cell)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				c.done <- fn(ctx, c.i, c.item)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(cells)
		defer close(work)
		i := 0
		for item := range src {
			c := &cell{i: i, item: item, done: make(chan R, 1)}
			select {
			case cells <- c: // blocks while the window is full: backpressure
			case <-ctx.Done():
				return
			}
			select {
			case work <- c:
			case <-ctx.Done():
				// The cell is queued for emission but will never be
				// computed; the emitter unblocks via ctx.Done instead.
				return
			}
			i++
		}
	}()

	wait := func() {
		for _, f := range idle {
			f()
		}
	}
	var err error
	for {
		// Each receive is tried without blocking first; only a miss runs
		// the idle hooks before the blocking receive.
		var c *cell
		var ok bool
		select {
		case c, ok = <-cells:
		default:
			wait()
			c, ok = <-cells
		}
		if !ok {
			break
		}
		var r R
		select {
		case r = <-c.done:
		case <-ctx.Done():
			err = ctx.Err()
		default:
			wait()
			select {
			case r = <-c.done:
			case <-ctx.Done():
				err = ctx.Err()
			}
		}
		if err != nil {
			break
		}
		if err = emit(c.i, r); err != nil {
			break
		}
	}
	cancel() // unblock the feeder so close(work) lets the pool drain
	wg.Wait()
	if err != nil {
		return err
	}
	// The derived ctx is cancelled above on every exit path; only the
	// caller's context says whether the stream itself was cut short.
	return parent.Err()
}
