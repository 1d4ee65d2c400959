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
// pool whose first worker is the calling goroutine. workers ≤ 0 selects
// runtime.GOMAXPROCS(0); the pool never exceeds n, and a pool of one starts
// no goroutine. ForEachCtx returns once every worker has stopped. Once ctx
// is cancelled no further index runs (in-flight calls finish), so a
// pre-cancelled ctx runs none; once some fn returns a non-nil error, no
// further index is dispatched, and no index above the lowest failed one
// runs. It returns ctx.Err() when the context was cancelled, else the
// error of the lowest failed index.
// Indices are dispatched in order, so the lowest failed index among the
// dispatched ones matches what a sequential loop would have reported.
//
// A panic in fn on the calling goroutine stops the other workers at their
// next index and goes on to the caller once they have exited; a panic on
// another worker ends the process.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	return ForEachWorkerCtx(ctx, n, workers, func(_, i int) error { return fn(i) })
}

// ForEachWorkerCtx is ForEachCtx for callers that keep per-worker scratch
// state: fn additionally receives the worker index w in [0, workers), 0 on
// the calling goroutine and stable for the lifetime of each worker, so fn
// can reuse preallocated buffers without synchronisation. A nil ctx means
// no cancellation (the curve sampler passes SampleCurveOptions.Context
// through as it is).
func ForEachWorkerCtx(ctx context.Context, n, workers int, fn func(w, i int) error) error {
	if n <= 0 {
		return ctxErr(ctx)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &pool{ctx: ctx, n: int64(n), fn: fn}
	p.lowest.Store(int64(n))
	p.run(min(workers, n))
	if err := ctxErr(ctx); err != nil {
		return err
	}
	return p.err
}

// pool is the state the workers of one ForEachWorkerCtx call share.
type pool struct {
	ctx    context.Context // nil: no cancellation
	n      int64
	fn     func(w, i int) error
	next   atomic.Int64 // the next index to take
	lowest atomic.Int64 // the lowest failed index so far; n while none
	mu     sync.Mutex   // orders the writes of lowest and err
	err    error        // the error of index lowest
	wg     sync.WaitGroup
}

// run runs worker 0 on the calling goroutine and the others on their own.
// However worker 0 leaves, by returning or by a panic in fn, the others
// take no further index, and run returns, or the panic goes on, only once
// they have exited.
func (p *pool) run(workers int) {
	defer func() {
		p.next.Store(p.n)
		p.wg.Wait()
	}()
	for w := 1; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.work(w)
		}()
	}
	p.work(0)
}

// work takes indices in order until they run out, ctx is cancelled or an
// index below the one it took has failed. Every index below the lowest
// failure still runs, so that failure is the one a sequential loop would
// have reported.
func (p *pool) work(w int) {
	for {
		i := p.next.Add(1) - 1
		if i >= p.n || i > p.lowest.Load() || ctxErr(p.ctx) != nil {
			return
		}
		if err := p.fn(w, int(i)); err != nil {
			p.mu.Lock()
			if i < p.lowest.Load() {
				p.lowest.Store(i)
				p.err = err
			}
			p.mu.Unlock()
		}
	}
}

// ctxErr is ctx.Err(), nil for a nil ctx.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// StreamOrdered is the bounded streaming pipeline stage: it pulls items from
// src one at a time, applies fn to each across a bounded worker pool, and
// calls emit with the results strictly in input order even though fn runs
// out of order. It is the plumbing for NDJSON request/response streams,
// where the first result must reach the client while later inputs are still
// being read.
//
// Each worker pulls its next item from src itself, one pull at a time, and
// computes it. The calling goroutine only emits: it never reads src (a
// client that sends line k+1 only after row k arrived would deadlock) and
// never computes (a ready result must not wait behind a slow one).
//
// Backpressure: at most window items are past src and not yet emitted
// (computing or waiting for an earlier item), so memory stays
// O(workers + window) no matter how long the stream is — src is simply not
// advanced while the window is full. workers ≤ 0 selects GOMAXPROCS;
// window < workers is raised to workers (a smaller window would idle the
// pool). Nothing is allocated per item.
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
	ctx, cancel := context.WithCancel(ctx)
	next, stop := iter.Pull(src)

	// Item i travels in cell i mod window: in says it left src (true: src
	// ended there) and done carries its result. A worker takes a room token
	// before it pulls, and the emitter hands the token back once it emitted
	// the item, so a worker holding one finds its cell drained: neither
	// send blocks.
	type cell struct {
		in   chan bool
		done chan R
	}
	cells := make([]cell, window)
	room := make(chan struct{}, window)
	for i := range cells {
		cells[i] = cell{make(chan bool, 1), make(chan R, 1)}
		room <- struct{}{}
	}
	var mu sync.Mutex // serialises next and pulled
	pulled := 0
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range room {
				mu.Lock()
				if ctx.Err() != nil {
					mu.Unlock()
					return
				}
				item, ok := next()
				i := pulled
				pulled++
				mu.Unlock()
				c := cells[i%window]
				c.in <- !ok
				if !ok {
					return
				}
				c.done <- fn(ctx, i, item)
			}
		}()
	}
	// However the emitter leaves, by returning or by a panic in emit or a
	// hook, the workers pull nothing more, and src stops once they exited.
	defer func() {
		cancel()
		close(room)
		wg.Wait()
		stop()
	}()
	for i := 0; ; i++ {
		c := cells[i%window]
		last, err := await(ctx, c.in, idle)
		if err != nil || last {
			// Until the deferred shutdown only the caller's context can
			// cancel ctx, so ctx.Err() says whether the stream was cut short.
			return ctx.Err()
		}
		r, err := await(ctx, c.done, idle)
		if err != nil {
			return err
		}
		if err := emit(i, r); err != nil {
			return err
		}
		room <- struct{}{}
	}
}

// await receives from ch for StreamOrdered's emitter. Only when nothing is
// ready does it run the idle hooks and block; it gives up with ctx.Err()
// once ctx is done.
func await[V any](ctx context.Context, ch <-chan V, idle []func()) (v V, err error) {
	select {
	case v = <-ch:
		return v, nil
	case <-ctx.Done():
		return v, ctx.Err()
	default:
	}
	for _, f := range idle {
		f()
	}
	select {
	case v = <-ch:
		return v, nil
	case <-ctx.Done():
		return v, ctx.Err()
	}
}
