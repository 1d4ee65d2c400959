package main

import (
	"time"

	"cpsdyn/internal/obs"
	"cpsdyn/internal/service"
)

// hist is a latency histogram in obs's bucket layout, rebuilt from /statsz
// snapshots so two scrapes can be subtracted: the obs histograms are
// process-wide and cumulative, so only deltas describe one phase.
type hist [obs.NumBuckets]uint64

var bucketIndex = func() map[float64]int {
	m := make(map[float64]int, obs.NumBuckets)
	for i := 0; i < obs.NumBuckets-1; i++ {
		m[obs.BucketBound(i)] = i
	}
	return m
}()

// histOf unpacks a snapshot's cumulative buckets into per-bucket counts.
func histOf(s *obs.Snapshot) hist {
	var h hist
	if s == nil {
		return h
	}
	var prev uint64
	for _, b := range s.Buckets {
		h[bucketIndex[b.LE]] = b.N - prev
		prev = b.N
	}
	h[obs.NumBuckets-1] = s.Count - prev
	return h
}

// addDelta adds the observations recorded between two snapshots.
func (h *hist) addDelta(before, after *obs.Snapshot) {
	b, a := histOf(before), histOf(after)
	for i := range h {
		h[i] += a[i] - b[i]
	}
}

func (h *hist) count() uint64 {
	var n uint64
	for _, c := range h {
		n += c
	}
	return n
}

// quantile interpolates inside the bucket holding the rank, the estimate
// obs and Prometheus' histogram_quantile both use.
func (h *hist) quantile(q float64) float64 {
	total := h.count()
	if total == 0 {
		return 0
	}
	rank, cum := q*float64(total), 0.0
	for i, n := range h {
		if n == 0 {
			continue
		}
		prev := cum
		cum += float64(n)
		if cum < rank {
			continue
		}
		if i == obs.NumBuckets-1 {
			return obs.BucketBound(obs.NumBuckets - 2)
		}
		lo := 0.0
		if i > 0 {
			lo = obs.BucketBound(i - 1)
		}
		hi := obs.BucketBound(i)
		return lo + (hi-lo)*(rank-prev)/float64(n)
	}
	return obs.BucketBound(obs.NumBuckets - 2)
}

// stageSum aggregates one /tracez stage over the matched server spans.
type stageSum struct {
	count   uint64
	seconds float64
}

// layerAcc accumulates what the traced blocks of one run observed: the
// /statsz counter deltas, the matched /tracez server spans, and the client
// spans of the requests the benchmark sent.
type layerAcc struct {
	passes, rows int
	wall         time.Duration // the blocks' wall time, scrapes included

	simSteps     uint64
	stepsPerPass []uint64 // cold workloads: one exact count per pass

	hits, misses, diskHits, evictions uint64
	poolHits, poolMisses              uint64
	stores, loadErrors                uint64
	storeBytes                        int64
	deriveRow, storePut               hist

	stages    map[string]*stageSum // over the workload's main requests
	mainRows  int64                // rows those server spans report
	reqS      []float64            // client seconds per main request
	spanS     []float64            // server span seconds per main request
	waitS     []float64            // client minus server seconds
	allocS    []float64            // client seconds per /v1/allocate
	unmatched int                  // client spans with no server span in /tracez
}

func newLayerAcc() *layerAcc { return &layerAcc{stages: make(map[string]*stageSum)} }

// addStats adds the counter deltas between two /statsz scrapes. A cold
// pass starts on a reset cache, so its "before" scrape is taken after the
// reset and the subtraction stays exact.
func (a *layerAcc) addStats(before, after *service.StatszResponse) uint64 {
	steps := after.SimSteps - before.SimSteps
	a.simSteps += steps
	a.hits += after.Cache.Hits - before.Cache.Hits
	a.misses += after.Cache.Misses - before.Cache.Misses
	a.diskHits += after.Cache.DiskHits - before.Cache.DiskHits
	a.evictions += after.Cache.Evictions - before.Cache.Evictions
	a.poolHits += after.Pool.Hits - before.Pool.Hits
	a.poolMisses += after.Pool.Misses - before.Pool.Misses
	if before.Store != nil && after.Store != nil {
		a.stores += after.Store.Stores - before.Store.Stores
		a.loadErrors += after.Store.LoadErrors - before.Store.LoadErrors
		a.storeBytes += after.Store.Bytes - before.Store.Bytes
	}
	a.deriveRow.addDelta(&before.Latency.DeriveRow, &after.Latency.DeriveRow)
	a.storePut.addDelta(before.Latency.StoreStore, after.Latency.StoreStore)
	return steps
}

// Request kinds: the workload's main stream request (derive or calibrate),
// whose server spans feed the stage sums, or an allocation.
const (
	kindMain = iota
	kindAllocate
)

// pendingReq is a traced request waiting for its server span.
type pendingReq struct {
	client *span
	kind   int
	secs   float64
}

// block is one group of passes between scrapes. In a traced block every
// request carries a client span whose ID the server echoes as the parent
// of its own span; match then pairs them up from /tracez.
type block struct {
	rec     *recorder
	parent  *span
	pending map[string]*pendingReq
}

func (bl *block) traced() bool { return bl != nil && bl.rec != nil }

// send posts one request, inside a client span when the block is traced.
func (bl *block) send(e *env, path string, body []byte, kind int) ([]byte, int, time.Duration, error) {
	var sp *span
	if bl.traced() {
		sp = bl.rec.begin("POST "+path, bl.parent.id())
	}
	t0 := time.Now()
	reply, status, err := e.post(path, body, sp.id())
	d := time.Since(t0)
	if sp != nil {
		sp.set("status", status)
		sp.set("bytes", len(reply))
		bl.rec.end(sp)
		bl.pending[sp.ID] = &pendingReq{client: sp, kind: kind, secs: d.Seconds()}
	}
	return reply, status, d, err
}

// match scrapes /tracez and pairs every pending client span with the
// server span that names it as parent, recording the server span (and its
// stage breakdown) as the client span's child. The ring behind /tracez
// keeps the 256 most recent traces, so a block sends fewer requests.
func (bl *block) match(e *env, acc *layerAcc) error {
	var tz service.TracezResponse
	if err := e.get("/tracez", &tz); err != nil {
		return err
	}
	for _, ts := range tz.Traces {
		p, ok := bl.pending[ts.Parent]
		if !ok {
			continue
		}
		delete(bl.pending, ts.Parent)
		start := bl.rec.since(ts.Start)
		sp := &span{ID: ts.ID, Parent: ts.Parent, Name: "server " + ts.Op,
			Start: start, End: start + int64(ts.Seconds*1e9)}
		sp.set("rows", ts.Rows)
		for _, st := range ts.Stages {
			sp.set(st.Stage+"S", st.Seconds)
			sp.set(st.Stage+"Count", st.Count)
		}
		bl.rec.add(sp)
		switch p.kind {
		case kindAllocate:
			acc.allocS = append(acc.allocS, p.secs)
		case kindMain:
			acc.reqS = append(acc.reqS, p.secs)
			acc.spanS = append(acc.spanS, ts.Seconds)
			acc.waitS = append(acc.waitS, p.secs-ts.Seconds)
			acc.mainRows += ts.Rows
			for _, st := range ts.Stages {
				s := acc.stages[st.Stage]
				if s == nil {
					s = &stageSum{}
					acc.stages[st.Stage] = s
				}
				s.count += st.Count
				s.seconds += st.Seconds
			}
		}
	}
	acc.unmatched += len(bl.pending)
	clear(bl.pending)
	return nil
}
