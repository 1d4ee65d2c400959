package mat

import (
	"sync"
	"sync/atomic"
)

// Pool is a free list of ExpmWorkspaces keyed by matrix order. Fleet
// derivation evaluates thousands of same-order exponentials; renting
// workspaces here amortises all workspace setup across them, and the
// hit/miss counters let /statsz and /metrics show whether steady state
// has been reached (hits ≫ misses) or the fleet's order mix is churning
// the pool. The zero value is ready to use. Pools are safe for
// concurrent use; the workspaces they hand out are not, so a rented
// workspace stays confined to its goroutine until Put.
type Pool struct {
	pools              sync.Map // matrix order (int) → *sync.Pool of *ExpmWorkspace
	hits, misses, puts atomic.Uint64
}

// SharedPool is the process-wide workspace pool. The allocating wrappers
// (Expm, ExpmIntegral) and the discretisation layer rent from it.
var SharedPool Pool

// PoolStats is a snapshot of a Pool's counters, shaped for /statsz.
type PoolStats struct {
	// Hits counts Gets served by a pooled workspace.
	Hits uint64 `json:"hits" metric:"pool_hits_total" help:"Matrix-exponential workspace pool hits (reused workspaces)."`
	// Misses counts Gets that had to build a fresh workspace.
	Misses uint64 `json:"misses" metric:"pool_misses_total" help:"Matrix-exponential workspace pool misses (workspaces built)."`
	// Puts counts workspaces returned for reuse.
	Puts uint64 `json:"puts" metric:"pool_puts_total" help:"Matrix-exponential workspaces returned to the pool for reuse."`
}

// Get rents an order-n workspace, building one only when the pool has
// none to reuse (a miss).
func (p *Pool) Get(n int) *ExpmWorkspace {
	sp := p.sizePool(n)
	if ws, ok := sp.Get().(*ExpmWorkspace); ok {
		p.hits.Add(1)
		return ws
	}
	p.misses.Add(1)
	return NewExpmWorkspace(n)
}

// Put returns a workspace for reuse by later same-order Gets. The caller
// must not touch ws afterwards.
func (p *Pool) Put(ws *ExpmWorkspace) {
	if ws == nil {
		return
	}
	p.puts.Add(1)
	p.sizePool(ws.n).Put(ws)
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Hits:   p.hits.Load(),
		Misses: p.misses.Load(),
		Puts:   p.puts.Load(),
	}
}

func (p *Pool) sizePool(n int) *sync.Pool {
	if sp, ok := p.pools.Load(n); ok {
		return sp.(*sync.Pool)
	}
	sp, _ := p.pools.LoadOrStore(n, &sync.Pool{})
	return sp.(*sync.Pool)
}
