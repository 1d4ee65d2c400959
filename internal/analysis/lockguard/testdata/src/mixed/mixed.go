// Package mixed holds mixed atomic and plain accesses of one location.
// The plain side needs no finding of its own: every such mix needs a
// package-level sync/atomic call, and rule 3 reports each call, also
// where every access of the variable goes through those functions.
package mixed

import "sync/atomic"

type stats struct {
	hits   int64
	misses int64
}

func (s *stats) hit()  { atomic.AddInt64(&s.hits, 1) }   // want `atomic\.AddInt64 leaves its variable open`
func (s *stats) miss() { atomic.AddInt64(&s.misses, 1) } // want `atomic\.AddInt64 leaves its variable open`

func (s *stats) snapshot() (int64, int64) {
	return s.hits, atomic.LoadInt64(&s.misses) // want `atomic\.LoadInt64 leaves its variable open`
}

func (s *stats) reset() {
	s.hits = 0
}

var counter int64

func bump() { atomic.AddInt64(&counter, 1) } // want `atomic\.AddInt64 leaves its variable open`

func read() int64 {
	return counter
}

var n int64

func allAtomic() int64 {
	atomic.AddInt64(&n, 1)      // want `atomic\.AddInt64 leaves its variable open`
	return atomic.LoadInt64(&n) // want `atomic\.LoadInt64 leaves its variable open`
}
