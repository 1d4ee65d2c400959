// Package typed holds rule 3 negatives: typed atomics, whose methods are
// the only way to reach their value, and plain fields never touched
// atomically.
package typed

import "sync/atomic"

type config struct{ limit int }

type stats struct {
	hits  atomic.Int64
	ready atomic.Bool
	cfg   atomic.Pointer[config]
	plain int64
}

func (s *stats) hit()        { s.hits.Add(1) }
func (s *stats) read() int64 { return s.hits.Load() }

func (s *stats) publish(c *config) bool {
	s.cfg.Store(c)
	return s.ready.CompareAndSwap(false, true)
}

func (s *stats) misc() int64 {
	s.plain++
	return s.plain
}
