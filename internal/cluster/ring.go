// Package cluster is the consistent-hash scale-out layer behind cpsdynd's
// gateway mode. A deterministic hash ring (Ring) partitions derivation work
// by canonical plant cache key (core.Application.CacheKey), so every replica
// of a cluster owns a stable slice of the derivation cache; a Gateway fans
// each incoming request out per-shard over the NDJSON streaming transport
// (one persistent sub-request per peer and request), merges the replies back
// into input order and falls back to local computation when a peer is down
// or times out. Peer health is tracked with consecutive-failure circuit
// breaking, and the gateway's traffic is counted (peerRows, peerFallbacks)
// for /statsz and /metrics.
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// virtualNodes is the per-peer point count on every ring. 128 points per
// peer keeps the ownership split within a few percent of uniform for small
// clusters while the ring stays a sub-kilobyte sorted slice. It is a
// constant, not a setting: two gateways with different counts would
// disagree on the owners of most keys.
const virtualNodes = 128

// Ring is a deterministic consistent-hash ring over a fixed peer set: every
// peer contributes virtualNodes points (FNV-1a of "peer#i") on a 64-bit circle,
// and a key is owned by the peer of the first point at or after the key's
// hash. Determinism is the load-bearing property — two gateways built from
// the same peer set (in any order) map every key to the same owner, so
// replicas see disjoint, stable slices of the derivation-cache key space,
// and removing one peer only reassigns the keys that peer owned (~1/N of
// the space), never shuffling the survivors' warm caches.
//
// A Ring is immutable and safe for concurrent use.
type Ring struct {
	peers  []string
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	peer int32 // index into peers
}

// hash64 is FNV-1a, chosen because its constants are fixed by specification:
// the mapping must agree across processes, architectures and Go releases.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // hash.Hash never fails
	return h.Sum64()
}

// NewRing builds the ring. Peers must be non-empty and distinct (the peer
// string is the node identity — two gateways must spell each peer the same
// way).
func NewRing(peers []string) (*Ring, error) {
	if len(peers) == 0 {
		return nil, errors.New("cluster: ring needs at least one peer")
	}
	// Sort a copy so construction order never influences tie-breaking.
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", sorted[i])
		}
	}
	r := &Ring{
		peers:  sorted,
		points: make([]ringPoint, 0, virtualNodes*len(sorted)),
	}
	for pi, peer := range sorted {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(peer + "#" + strconv.Itoa(v)),
				peer: int32(pi),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// A full 64-bit collision between different peers' points is
		// vanishingly unlikely but must still break deterministically.
		return a.peer < b.peer
	})
	return r, nil
}

// Owner returns the peer owning key: the peer of the first ring point at or
// after hash(key), wrapping past the top of the circle.
func (r *Ring) Owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.peers[r.points[i].peer]
}

// Peers returns the peer set in the ring's canonical (sorted) order.
func (r *Ring) Peers() []string {
	return append([]string(nil), r.peers...)
}
