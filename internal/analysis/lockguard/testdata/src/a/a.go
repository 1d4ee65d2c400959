// Package a holds lockguard positives: locks leaked on some path, locks
// held across blocking operations and a package-level sync/atomic call.
package a

import (
	"errors"
	"sync"
	"sync/atomic"
)

var errBoom = errors.New("boom")

type counter struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// recvHelper blocks on a channel, giving it a transitive Blocks fact.
func recvHelper(ch chan int) int { return <-ch }

func leakOnError(c *counter, fail bool) error {
	c.mu.Lock() // want `not released on every path`
	if fail {
		return errBoom
	}
	c.mu.Unlock()
	return nil
}

func rlockLeak(c *counter) int {
	c.rw.RLock() // want `not released on every path`
	return c.n
}

func heldAcrossRecv(c *counter, ch chan int) int {
	c.mu.Lock()
	v := <-ch // want `held across channel receive`
	c.mu.Unlock()
	return v
}

func heldAcrossSend(c *counter, ch chan int) {
	c.mu.Lock()
	ch <- c.n // want `held across channel send`
	c.mu.Unlock()
}

func heldAcrossCall(c *counter, ch chan int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return recvHelper(ch) // want `held across blocking call to recvHelper`
}

func heldAcrossWait(c *counter, wg *sync.WaitGroup) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wg.Wait() // want `held across blocking call to Wait`
}

func heldAcrossSelect(c *counter, ch chan int) {
	c.mu.Lock()
	select { // want `held across select without default`
	case <-ch:
	}
	c.mu.Unlock()
}

func heldAcrossRange(c *counter, ch chan int) {
	c.mu.Lock()
	for v := range ch { // want `held across range over channel`
		c.n += v
	}
	c.mu.Unlock()
}

var hits int64

// plainAtomic bumps a plain int64 through a package-level sync/atomic
// function; any other line may still read hits plainly.
func plainAtomic() {
	atomic.AddInt64(&hits, 1) // want `atomic\.AddInt64 leaves its variable open to plain reads and writes`
}
