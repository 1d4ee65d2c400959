// Package leaky is a cpsdynlint route-test fixture. It carries exactly
// two deliberate lockguard violations, a leaked lock and an untyped
// sync/atomic call, so the command tests can assert on the finding set
// in both output modes. The testdata directory name keeps it out of
// ./... wildcards, so the tree-wide CI lint run never sees it.
package leaky

import (
	"sync"
	"sync/atomic"
)

var mu sync.Mutex
var n int64

// Leak acquires mu and forgets it on the early path.
func Leak(fail bool) {
	mu.Lock()
	if fail {
		return
	}
	mu.Unlock()
}

// Mixed bumps n atomically but reads it plainly, which the untyped
// atomic.AddInt64 allows.
func Mixed() int64 {
	atomic.AddInt64(&n, 1)
	return n
}
