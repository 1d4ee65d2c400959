// Package cpsdyn reproduces the DATE 2019 paper "Exploiting System Dynamics
// for Resource-Efficient Automotive CPS Design" (Maldonado, Chang, Roy,
// Annaswamy, Goswami, Chakraborty) as a production-quality Go library.
//
// The implementation lives under internal/: see internal/core for the
// user-facing pipeline (Application → Derive → AllocateSlots → Verify),
// internal/casestudy for the §V experiments, and the runnable programs in
// cmd/cpsrepro and examples/. The root-level bench harness (bench_test.go)
// regenerates every table and figure of the paper's evaluation; the
// benchmark↔artefact mapping is documented in EXPERIMENTS.md.
//
// # Fleet-scale derivation
//
// Fleet workloads derive many applications that reuse a handful of plant
// models. core.DeriveFleet fans the per-application Derive calls out across
// a bounded worker pool (core.FleetOptions.Workers, defaulting to
// runtime.GOMAXPROCS) and aggregates per-application failures into one
// joined error. The expensive intermediates — the delay-split matrix
// exponentials and the exhaustively simulated dwell/wait curves — are
// memoised in a small thread-safe single-flight cache keyed by the exact
// plant dynamics and timing, so repeated derivations of identical plants
// are near-free; cached artefacts are shared between results and must be
// treated as immutable. sched.AllocateRace (and its core.AllocateSlotsRace
// bridge) additionally races the first-fit, sequential and best-fit
// allocation heuristics concurrently and keeps the feasible result with the
// fewest TT slots, and sched.AllocateBatch allocates many independent
// fleets concurrently across one bounded worker pool.
//
// The memo cache is a size-aware LRU: core.SetDeriveCacheCapacity bounds it
// by entry count and (optionally) approximate retained bytes, and
// core.DeriveCacheStats reports hit/miss/eviction counters plus current
// occupancy.
//
// # Sharded sampling and cancellation
//
// The dominant cost of a cache-miss derive — measuring the non-monotone
// dwell curve by exhaustive simulation (§III) — is itself sharded: a cheap
// sequential prepass walks the switch states A1^kwait·x0 once, then every
// kwait's independent settling simulation fans out across a bounded worker
// pool (switching.SampleCurveWith; core.SetCurveSamplingWorkers tunes the
// width, defaulting to every core). The sampled curve is byte-identical
// for any worker count. The settling kernel steps in reusable scratch
// buffers (mat.MulVecTo), so simulation allocates nothing per step, and
// advances the process-wide switching.SimSteps gauge.
//
// The hot paths are cancellable end to end: context.Context threads from
// core.DeriveFleet / (*core.Application).DeriveContext through the memo
// cache's single-flight path into the settling simulations (sub-millisecond
// cancellation points), and through the measured-mode calibration searches
// (casestudy.Calibrate, whose binary searches evaluate their bisection
// probes speculatively in parallel). A cancelled computation never poisons
// a single-flight entry: waiters with live contexts retake it.
//
// # Performance
//
// The numeric kernels in internal/mat follow an explicit-workspace
// discipline: every allocating operation has a To-suffixed twin that writes
// into caller-held memory (MulTo, AddTo, SubTo, ScaleTo, LU.SolveTo,
// ExpmTo, ExpmIntegralTo) and is annotated //cpsdyn:allocfree, so the
// allocfree analyzer enforces the zero-allocation contract statically and
// testing.AllocsPerRun tests pin it at runtime. ExpmTo runs the Padé
// [6/6] scaling-and-squaring exponential entirely inside a reusable
// mat.ExpmWorkspace; the classic names (Expm, ExpmIntegral, Solve, Mul)
// remain as thin wrappers that rent a workspace from the process-wide
// mat.SharedPool (a sync.Pool keyed by matrix order, hit/miss/put counters
// in /statsz and /metrics), so legacy call sites get pooling for free.
//
// Aliasing rules: dst of MulTo must not alias either operand (checked,
// panics); AddTo/SubTo/ScaleTo/CopyTo allow any aliasing; LU.SolveTo
// allows dst to alias the right-hand side. For orders n ≤ 4 — the band
// that dominates automotive plants — MulTo and MulVecTo dispatch at
// runtime to fully unrolled kernels whose accumulation order is
// bit-identical to the generic loop, so the determinism contract (and the
// byte-exact cache keys built on it) survive the fast path; property
// tests compare the two paths with math.Float64bits.
//
// One augmented Van Loan exponential yields both Φ(t) and Γ(t), and the
// semigroup identity Γ(h) = Γ(h−d) + Φ(h−d)·Γ(d) turns the delay-split
// discretisation into two exponential evaluations instead of four
// (lti.Discretize; lti.DelayTable caches Γ(h) at construction and spends
// exactly one evaluation per queried delay). Above the kernels, every
// core.Application carries a derive memo — a bit-exact snapshot of the
// fields that feed Derive plus the last *Derived — so a warm
// core.DeriveFleetInto sweep over an unchanged fleet is a sequence of
// pointer loads: zero allocations, no goroutines, verified by an
// AllocsPerRun test and benchmarked by BenchmarkDeriveFleetWarm.
// Mutating any derivation input in place invalidates the memo on the
// next call. Because the memo embeds an atomic.Pointer, Application
// values must not be copied; use CloneShallow.
//
// The benchmark trajectory is CI-gated: cpsrepro bench-export runs the
// kernel suite hermetically (testing.Benchmark in-process) and writes a
// JSON report (BENCH_8.json is the committed artefact), and the CI
// bench-compare job diffs every PR against its merge base, failing on a
// >15% geometric-mean ns/op regression or on any benchmark whose
// allocs/op increased.
//
// # Service mode (cmd/cpsdynd)
//
// cmd/cpsdynd serves the pipeline as a long-running HTTP/JSON service so
// the derivation cache stays warm across requests instead of being rebuilt
// by every CLI invocation. internal/service holds the request codec —
// shared with cmd/slotalloc, whose input schema POST /v1/allocate accepts
// either as a single fleet or as a {"fleets": [...]} batch — plus the
// handler with bounded in-flight concurrency (semaphore), per-request
// compute budgets and /healthz + /statsz + /metrics (Prometheus text)
// endpoints. POST /v1/derive performs batch fleet derivation from raw
// plant matrices and timing, returning Table-I-style rows and fitted §III
// models that paste directly into an allocation request; POST /v1/calibrate
// owns the full measured-mode workflow (plants plus response-time targets
// in, calibrated pole-placement designs plus derive rows out). A request
// whose compute budget expires or whose client disconnects is cancelled —
// it stops consuming CPU promptly — unless the service opts into detached
// background completion (service.Config.CompleteInBackground).
//
// # Streaming derivation (NDJSON)
//
// Thousand-app fleets should not ride in one JSON body. POST
// /v1/derive/stream accepts NDJSON — one service.DeriveAppSpec per request
// line — and answers with NDJSON result rows ({"index", "result"} or
// {"index", "error"}) flushed as each derivation completes, emitted in
// input order while later request lines are still being read, so result
// buffering stays O(workers + window) instead of O(batch) — the only
// per-row retention is the duplicate-name set (app names, not rows). The pieces are
// reusable: service.DecodeLines / service.DecodeRequests iterate request
// lines (malformed lines become typed error rows — *service.RequestError —
// never stream aborts), service.EncodeResult writes rows, and
// conc.StreamOrdered is the bounded pipeline stage that derives out of
// order while emitting in order under a backpressure window. The same codec
// drives the CLIs offline: slotalloc -stream allocates one fleet per NDJSON
// line and cpsrepro derive -stream derives one app per line. Streamed
// output, sorted by index, is byte-identical to the buffered endpoint's
// rows for the same batch at any worker count; /statsz and /metrics expose
// streams, rowsIn, rowsOut and streamCancelled counters. The same framing
// now also serves allocation and calibration: POST /v1/allocate/stream
// (one FleetRequest per line) and POST /v1/calibrate/stream (one
// CalibrateAppSpec per line) ride the identical engine, budget and
// counters.
//
// # Cluster layer (sharding gateway)
//
// Derivation is deterministic and keyed by exact plant bit patterns, so
// the memo cache partitions perfectly: route equal keys to one replica and
// each replica's LRU holds a disjoint, stable slice of the fleet's
// artefacts. internal/cluster implements that scale-out. A deterministic
// consistent-hash ring (cluster.Ring: FNV-1a, configurable virtual nodes
// per peer, order-independent construction) maps every app's canonical
// cache key — core.Application.CacheKey, a string over exactly the fields
// that reach a cache entry, deliberately excluding name/frame/r/deadline —
// to the replica owning it; removing one of N peers reassigns only ~1/N of
// the key space, never a survivor's warm keys. cpsdynd -peers h1,h2,...
// turns a daemon into a gateway: /v1/derive and /v1/derive/stream keep
// their single-node contract (validation, wire rows, input-order emission,
// byte-identical output) but fan each request out as one persistent NDJSON
// sub-stream per peer (cluster.Session over the streaming codec), matching
// response rows to senders FIFO per peer and re-indexing them into the
// caller's numbering. A replica that is down, slow (-peer-timeout) or
// circuit-broken (consecutive-failure breaker with half-open probes) costs
// only warmth: its rows are derived locally and counted — /statsz and
// /metrics expose per-peer health plus peerRows and peerFallbacks, and a
// replica's effective workers/streamWindow capacity is introspectable over
// its own /statsz.
//
// # Persistent derivation store
//
// The same determinism that lets the cluster shard the cache lets
// internal/store persist it: an artefact is a pure function of its
// bit-exact cache key, so a disk record can only ever disagree with a
// recomputation by being corrupt — staleness cannot exist. The store is
// content-addressed and one-file-per-key: record dir/<hh>/<hex>.rec holds
// a 48-byte header (magic "CPSD", format version, artefact kind, the
// SHA-256 of the full cache-key string, payload length, CRC-32C of the
// payload) followed by a versioned binary payload in which every float64
// crosses as its math.Float64bits pattern — a decoded discretisation or
// dwell curve is bit-identical to the encoded one, pinned by
// property tests that also prove every single-byte flip and truncation is
// rejected. Writes go to a temp file and rename into place atomically;
// Open sweeps orphaned temp files; a torn or bit-rotted record fails its
// CRC on load, is counted as a loadError, deleted and re-derived — never
// served, never fatal.
//
// core.SetDeriveStore hangs the store (any core.ArtifactStore) under the
// in-memory LRU: a memory miss reads through the store before computing —
// inside the same single-flight entry, so concurrent callers share one
// disk read — and is counted as a diskHit, not a miss; a successful
// computation is written behind on a bounded queue that drops writes
// under saturation rather than stalling derivations. cpsdynd -cache-dir
// enables it (off by default; -cache-dir-bytes caps the on-disk footprint,
// oldest records evicted first) and surfaces store loads/stores/
// loadErrors/dropped/writeErrors/records/bytes in /statsz and as
// cpsdynd_store_* in /metrics — a write lost to a full queue or a failed
// disk write is counted, not silent.
// The operational payoff is warm rejoin: a replica restarted onto the
// same directory serves its consistent-hash shard from disk instead of
// re-deriving it — CI kill −9s a replica and asserts the restarted
// process answers the full batch byte-identically with near-zero misses.
//
// # Observability
//
// internal/obs is the zero-dependency observability layer threaded through
// every hot path: lock-free log-spaced latency histograms, request-scoped
// traces with fixed per-stage accumulators, and the bounded ring behind
// cpsdynd's GET /tracez. A histogram observation is two atomic adds on a
// fixed 33-bucket array (bounds 2^i µs — relative error < 2× across the
// six orders of magnitude between a warm cache hit and a cold 300-app
// derivation), allocation-free and pinned by AllocsPerRun tests; /statsz
// serves each histogram as a snapshot with cumulative buckets and
// interpolated p50/p90/p99, /metrics as a Prometheus
// _bucket/_sum/_count triplet. Both pages render one StatszResponse
// snapshot: /metrics is generated from the metric and help struct tags on
// its fields (see Enforced invariants), so the two pages cannot drift.
// Per-endpoint request histograms live on the service.Server;
// the pipeline histograms (per-row derive on the memo-cache slow path,
// store load/store, peer round trip) are process-wide like the caches
// they instrument — and the warm derive path stays uninstrumented: a
// memo hit takes zero clock reads.
//
// Every request and stream carries an obs.Trace in its context: a 16-hex
// span ID, an optional parent (the X-Cpsdyn-Trace request header; the
// gateway forwards its own trace ID on each persistent sub-stream, so a
// replica's span names the gateway span as parent), and lock-free
// per-stage time/count accumulators over a closed stage set — decode,
// cacheLookup, diskLoad, discretize, curveSample, encode, peerRoundTrip —
// so a million-row stream still produces a fixed-size trace. Finished
// traces land in a bounded ring served by GET /tracez, slowest first,
// and emit one structured log/slog completion record (op, trace ID,
// duration, rows) joinable against /tracez by trace ID. Tracing changes
// no output byte: traced gateway streams are golden-diffed against
// untraced single-node runs. Profiling is opt-in: cpsdynd -debug-addr
// serves net/http/pprof on a separate listener, keeping profile handlers
// off the service port.
//
// # Enforced invariants
//
// Six project invariants are machine-checked by the internal/analysis
// suite, run as a blocking CI gate via cmd/cpsdynlint:
//
//   - Context flow (ctxflow): library code under internal/ neither mints
//     context.Background()/TODO() nor, holding a ctx, calls a non-context
//     variant that discards it — cancellation threads end to end, which is
//     what makes the service's compute budgets actually stop work.
//   - Allocation-free kernels (allocfree): functions on the simulation hot
//     path declare themselves allocation-free and the analyzer holds them
//     to it (no make/new/append, no map or slice literals, no closures).
//   - Determinism (determinism): the kernel packages (internal/mat,
//     switching, lti, sim, pwl) produce byte-identical output at any
//     worker count — no ordered writes under map iteration, no wall clock
//     or process-global rand, no unindexed goroutine fan-in. This is the
//     contract the cache keys, the streaming golden diffs and the cluster
//     sharding all rest on.
//   - Lock discipline (lockguard): a mutex acquired in internal/ or cmd/
//     code is released on every path to a function exit, and is never held
//     across an operation that may block — channel operations, network
//     I/O, context/WaitGroup waits — as summarised transitively by the
//     cross-package facts internal/analysis.Load derives.
//   - Goroutine lifecycle (goroleak): every go statement in internal/
//     either reaches a join (WaitGroup/Cond Wait, channel receive, select,
//     range over a channel, a conc pool) on some path after the spawn, or
//     the goroutine body watches ctx.Done() — no fire-and-forget work that
//     outlives its request.
//   - Atomic consistency (atomicmix): a variable or field accessed through
//     sync/atomic anywhere is never plainly read or written elsewhere —
//     the mixed access the race detector only catches when both sides
//     happen to run.
//
// The last three are path-sensitive: they run forward dataflow over the
// intraprocedural control-flow graphs of internal/analysis/cfg, consulting
// per-function blocks/spawns summaries propagated bottom-up through the
// whole go list -deps closure (internal/analysis.Facts).
//
// Deliberate exceptions are declared where they occur, never in a central
// allowlist, using //cpsdyn: directives (each carrying its justification
// inline):
//
//	//cpsdyn:ctx-compat <why>     on a function: may use context.Background
//	//cpsdyn:allocfree <why>      on a function: body must not allocate
//	//cpsdyn:order-invariant <why> on a function: exempt from determinism
//	//cpsdyn:lock-across <why>    on a function: may hold a lock across a
//	                              blocking operation (leaks still flagged)
//	//cpsdyn:detached <why>       on or above a go statement: deliberately
//	                              unjoined goroutine
//	//cpsdyn:nonatomic <why>      line comment: plain access to an
//	                              atomically-updated variable is safe here
//
// See internal/analysis/README.md for the analyzer framework and how to
// add a check.
//
// Observability parity needs no analyzer: every family on /metrics is
// declared once, on the /statsz field that holds it, by two struct tags —
// metric:"<name without the cpsdynd_ prefix>" and help:"<text>" — and
// internal/service renders the page by walking the snapshot. An
// obs.Snapshot field is a histogram, a name ending in _total a counter,
// anything else a gauge; a tagged slice renders its length plus the sums
// of its elements' tagged fields, and metric:"-" marks a JSON-only field.
// A reflective test fails on an untagged numeric field, empty help text or
// a duplicate name, and a golden test holds every family's bytes.
package cpsdyn
