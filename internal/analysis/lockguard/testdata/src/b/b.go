// Package b holds lockguard negatives: balanced, deferred and
// released-before-blocking locks and a typed atomic, which the analyzer
// must stay silent on.
package b

import (
	"sync"
	"sync/atomic"
)

type counter struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

func balanced(c *counter, fail bool) int {
	c.mu.Lock()
	if fail {
		c.mu.Unlock()
		return 0
	}
	n := c.n
	c.mu.Unlock()
	return n
}

func deferred(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func deferredInLit(c *counter) int {
	c.mu.Lock()
	defer func() {
		c.n++
		c.mu.Unlock()
	}()
	return c.n
}

func releaseBeforeRecv(c *counter, ch chan int) int {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return <-ch
}

// callerHeld releases a lock its caller acquired; the unmatched unlock is
// deliberately ignored.
func callerHeld(c *counter) {
	c.n++
	c.mu.Unlock()
}

func pollUnderLock(c *counter, ch chan int) {
	c.mu.Lock()
	select {
	case v := <-ch:
		c.n += v
	default:
	}
	c.mu.Unlock()
}

func readersAndWriters(c *counter) int {
	c.rw.RLock()
	n := c.n
	c.rw.RUnlock()
	c.rw.Lock()
	c.n++
	c.rw.Unlock()
	return n
}

func panicPathDeferred(c *counter, bad bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if bad {
		panic("boom")
	}
	c.n++
}

// litBalanced locks and unlocks within one function literal; the literal
// is checked as its own function.
func litBalanced(c *counter) func() {
	return func() {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
}

func loopLocked(c *counter, xs []int) {
	for _, x := range xs {
		c.mu.Lock()
		c.n += x
		c.mu.Unlock()
	}
}

// hits is a typed atomic: every access goes through its methods.
var hits atomic.Int64

func typedAtomic() int64 {
	hits.Add(1)
	return hits.Load()
}
