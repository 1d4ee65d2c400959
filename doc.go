// Package cpsdyn reproduces the DATE 2019 paper "Exploiting System Dynamics
// for Resource-Efficient Automotive CPS Design" (Maldonado, Chang, Roy,
// Annaswamy, Goswami, Chakraborty) as a production-quality Go library.
//
// The implementation lives under internal/: see internal/core for the
// user-facing pipeline (Application → DeriveContext → AllocateSlots →
// Verify),
// internal/casestudy for the §V experiments, and the runnable programs in
// cmd/cpsrepro and examples/. The root-level bench harness (bench_test.go)
// regenerates every table and figure of the paper's evaluation; the
// benchmark↔artefact mapping is documented in EXPERIMENTS.md.
//
// # Fleet-scale derivation
//
// Fleet workloads derive many applications that reuse a handful of plant
// models. core.DeriveFleet fans the per-application DeriveContext calls
// out across a pool of runtime.GOMAXPROCS workers and aggregates
// per-application failures into one joined error. The expensive intermediates — the delay-split matrix
// exponentials and the exhaustively simulated dwell/wait curves — are
// memoised in a small thread-safe single-flight cache keyed by the exact
// plant dynamics and timing, so repeated derivations of identical plants
// are near-free; cached artefacts are shared between results and must be
// treated as immutable. sched.AllocateRace (and its core.AllocateSlotsRace
// bridge) additionally races the first-fit, sequential and best-fit
// allocation heuristics concurrently over one validated, priority-sorted
// copy of the fleet and keeps the feasible result with the fewest TT
// slots, and service.AllocateFleets allocates many independent
// fleets concurrently across one bounded worker pool.
//
// The memo cache is a size-aware LRU: core.SetDeriveCacheCapacity bounds it
// by entry count and (optionally) approximate retained bytes, and
// core.DeriveCacheStats reports hit/miss/eviction counters plus current
// occupancy.
//
// The cache holds two levels under one LRU, one capacity and one
// single-flight discipline. Beneath are the persisted artefacts: two
// discretisations ("disc|" keys) and one dwell curve ("curve|") per
// application. Above them sits one derivation bundle per
// core.Application.CacheKey ("app|"): the name-free Derived, i.e. the
// discretisations, gains, closed loops, switched system, curve and the
// three fitted models. A warm derivation of a fresh Application (every
// cpsdynd row is one) is therefore one key build and one lookup, and the
// app itself is attached per row. The counters keep their meaning. A
// bundle served from memory counts one hit, also for a waiter on a fill
// in flight. A bundle fill counts only through the lookups it makes, so
// misses still count discretisations and curves computed: 3 for a cold
// app, and 0 (with 3 diskHits) for a warm rejoin from disk. Bundles are
// memory-only and never reach the ArtifactStore: they only point at
// artefacts the store already persists, and a restarted replica refills
// each one from three disk hits. The bundle and the curve are shared by
// every app with the key, so their errors carry no app name;
// DeriveContext renders a shared failure under its own app's name. The
// keys are built by appending hex and decimal digits, without fmt; their
// bytes are the store's record addresses and a golden test pins them.
//
// DeriveContext keeps no state on the Application: a second derivation of
// the same Application is another key build and bundle lookup, and
// core.DeriveFleet is that lookup fanned out over a fleet.
//
// # Slot allocation
//
// sched.AllocateContext places apps in priority order (deadline, then name), so
// a joiner is always the lowest-priority member of the slot it joins.
// Every member's higher-priority set is therefore frozen once it has
// joined, and a later joiner can only raise the blocking term, and only
// for the suffix of members whose blocking is below the joiner's ξM. The
// allocator keeps one state per slot: the members in priority order with
// their ξM, blocking, wait, response and verdict, plus the running Σ ξM
// and Σ ξM/r. A candidate check evaluates the joiner from the running
// sums and re-evaluates only that suffix, stopping at the first miss. It
// makes no copy, sort, validation, fmt call or heap allocation (the
// allocfree analyzer and an AllocsPerRun test hold it to that), and
// over-utilisation is a verdict, not a formatted error. Every step
// repeats the float operations of sched.MaxWait and sched.AnalyzeSlot in
// their order, so slots, tie-breaks, error strings and reply bytes are
// those of the allocator that re-analysed each candidate slot from
// scratch. AnalyzeSlot stays exported and unchanged as the oracle: a
// property test compares the allocator against that reference on random
// fleets with tied deadlines, and each committed slot's per-member
// results against AnalyzeSlot bit for bit; Verify and the service's
// reply rows still call it; a golden file pins the reply bytes. The
// branch-and-bound Exact search takes each join back exactly, from a
// trail of the records it overwrote. Exact is exponential, so it checks
// its context every 1 024 search nodes: sched.AllocateContext and
// service.AllocateFleets thread the request's context, so cpsdynd's
// compute budget stops an exact request and frees its in-flight slot.
//
// # Sharded sampling and cancellation
//
// The dominant cost of a cache-miss derive — measuring the non-monotone
// dwell curve by exhaustive simulation (§III) — is itself sharded: a cheap
// sequential prepass walks the switch states A1^kwait·x0 once, then chunks
// of 16 consecutive kwaits fan out across a bounded worker pool
// (switching.SampleCurveWith; core.SetCurveSamplingWorkers tunes the
// width, defaulting to every core). Inside a chunk the settling walks run
// in lockstep: the chunk's live states sit in one block, every step tests
// each of them (threshold, then certificate), swap-removes the ones whose
// walk ended and steps the rest in one mat.MulVecsTo batch: four states
// per pass over A2's rows, or, at order 3 (the probe family and every §V
// loop), every state with A2's nine entries in registers. Each state's
// dot products keep mat.MulVecTo's order from a +0 seed, so every
// walk is bit-identical to the one-state walk, and the sampled curve is
// byte-identical for any worker count. The threshold test takes no square
// root: it compares the sum of squares with the largest float64 whose
// rounded square root is at most Eth, computed once per curve, which
// decides exactly as ‖x‖ > Eth because a correctly rounded square root is
// monotone. The kernel hands that sum back for every new state, summed in
// mat.VecNorm2's order as it writes the state's thresholded rows, so the
// test never reloads a state; only a chunk's starting states are summed
// apart. The walks step in reusable scratch carved from one buffer, so
// simulation allocates nothing per step, and advance the process-wide
// switching.SimSteps gauge and the request trace's simulated-step count
// (simSteps on /tracez) by exactly the steps the one-state walks take.
//
// Each settling walk looks for the last threshold excursion, which the
// full walk only finds by stepping to the horizon (20 000 steps from
// DeriveContext, 60 000 in the calibration probes) while the dwells are a few
// hundred steps. A stop certificate, computed once per loop matrix,
// proves from where on the walk can never cross Eth again: it balances
// the loop with a power-of-two diagonal, finds the first power that
// contracts 4× in the balanced ∞-norm, and bounds the rounding of both
// the walk and the computed powers (switching/certificate.go states the
// proof). The walk then stops at the first below-threshold state that
// one of three tests certifies, which gives exactly the full walk's
// (kdw, settled). The first test is a box that bounds every future state
// by one worst-case scalar; the second bounds the first contraction block
// row by row, with the entrywise maximum of the balanced powers over the
// thresholded rows, and the later blocks by their 2× shrinkage from a
// small box; the third, tried only when both refuse, bounds the first
// block the same way from a 256× larger box and the start of the second
// block through the absolute value of the contracting power itself, so
// that a state can stop wherever the walk's later blocks start small,
// not only where every component does. The second and third let a
// non-normal loop stop where its transient cannot reach, which the box
// pays for in every direction: the §V curves walk 1.24× their summed
// dwells (1.86× with the first two tests, 5.6× with the box alone).
// Tests check every fixture certificate against exact powers in math/big
// and walk states on the edge of every certified region. The power search
// forms each power's bookkeeping (its rows' plain and weighted sums, the
// running maxima) while it forms the power, with an unrolled order-3
// path; the tests hold it bit for bit to a two-pass reference loop.
// The stop test reads each |x_j| once, refuses a state outside the
// largest box in the same pass, and then refuses a sum of the row test
// above 1 before it looks at the smaller box: every branch refuses such a
// sum, since the later-block bound L is at most 1.
//
// The curve sampler certifies A1 and A2 once per curve, a calibration
// probe its one loop; a loop without a certificate — marginal, unstable,
// or too ill-conditioned for the rounding bound — falls back to the full
// walk and counts in switching.CertRefusals (certRefusals on /statsz and
// on its /tracez span). A certificate proves its loop Schur stable, so
// only a loop it refuses takes the QR eigenvalue check: a curve
// (SampleCurveWith) checks shapes and finiteness, then certifies A1 and
// solves for its eigenvalues only on a refusal, then the same for A2, and
// a probe (System.ProbeSteps) does the same for its one loop; the errors
// are the ones the QR check always gave. An unstable or marginal loop
// therefore costs a refused power search (bounded by the horizon and the
// context) before the QR solve names it unstable, and a refusal counts
// only once every loop of the curve or probe has passed, for a stable
// loop that then walks uncertified. A walk whose state overflows to NaN
// fails its derivation instead of counting as settled. Every certified
// walk runs on the lockstep kernel: the pure-mode walks (ξTT and ξET of a
// curve, and System.ProbeSteps, the calibration probes' walk) are
// one-lane walks (switching's walkOne) with the same square-root-free
// threshold.
// switching.System.DwellSteps keeps the exhaustive one-state walk, with
// Norm's square root, as the reference oracle that the property and
// fixture tests compare against.
//
// The hot paths are cancellable end to end: context.Context threads from
// core.DeriveFleet / (*core.Application).DeriveContext through the memo
// cache's single-flight path into the settling simulations (sub-millisecond
// cancellation points), and through the measured-mode calibration searches
// (casestudy.Calibrate, whose sequential bisections check the context
// before every probe). Each probe (core.ProbeSettleContext) designs,
// checks, certifies and walks only the loop its search measures: one
// discretisation, one gain, one certificate and one walk, all in one
// core.ProbeWorkspace that Calibrate passes to every probe of both its
// searches (the loop's matrices, control.AckermannWorkspace, the walk's
// switching.Workspace), so a warm probe allocates only its
// discretisation's cache key. The loop a
// search holds fixed is checked once instead: the ET design the TT search
// fixes, before that search starts (when it fails, the search ends as if
// every probe had failed), while the TT design the ET search fixes is one
// the TT search already walked. cpsdynd books the searches' time as the
// search stage of a calibrate span on /tracez. A cancelled computation
// never poisons a single-flight entry: waiters with live contexts retake
// it.
//
// # Performance
//
// The numeric kernels in internal/mat follow an explicit-workspace
// discipline: every allocating operation has a To-suffixed twin that writes
// into caller-held memory (MulTo, AddTo, SubTo, ScaleTo, Zero, LU.SolveTo,
// ExpmTo, ExpmIntegralTo) and is annotated //cpsdyn:allocfree, so the
// allocfree analyzer enforces the zero-allocation contract statically and
// testing.AllocsPerRun tests pin it at runtime. ExpmTo runs the Padé
// [6/6] scaling-and-squaring exponential entirely inside a reusable
// mat.ExpmWorkspace; the classic names (Expm, ExpmIntegral, Solve, Mul)
// remain as thin wrappers that rent a workspace from the process-wide
// mat.SharedPool (a sync.Pool keyed by matrix order, hit/miss/put counters
// in /statsz and /metrics), so legacy call sites get pooling for free. The
// loop builders follow the same rule: control.AckermannTo designs a gain
// in a control.AckermannWorkspace, and lti's AugmentedTo and ClosedLoopTo
// build the augmented pair and the closed loop in caller-held matrices,
// with the same products in the same order; Ackermann, Augmented and
// ClosedLoop are their allocating wrappers.
//
// Aliasing rules: dst of MulTo must not alias either operand (checked,
// panics); AddTo/SubTo/ScaleTo/CopyTo allow any aliasing; LU.SolveTo
// allows dst to alias the right-hand side. For orders n ≤ 4 — the band
// that dominates automotive plants — MulTo and MulVecTo dispatch at
// runtime to fully unrolled kernels whose accumulation order is
// bit-identical to the generic loop, so the determinism contract (and the
// byte-exact cache keys built on it) survive the fast path; property
// tests compare the two paths with math.Float64bits. MulVecsTo, the batch
// form the lockstep walks step with, is held to MulVecTo the same way.
//
// One augmented Van Loan exponential yields both Φ(t) and Γ(t), and the
// semigroup identity Γ(h) = Γ(h−d) + Φ(h−d)·Γ(d) turns the delay-split
// discretisation into two exponential evaluations instead of four
// (lti.Discretize; lti.DelayTable caches Γ(h) at construction and spends
// exactly one evaluation per queried delay). Above the kernels, no
// per-application memo sits in front of the derivation cache: a warm
// derivation is one key build and one bundle lookup, and
// core.Application is a plain value that may be copied.
//
// The settling walks stop at their certificates (see Sharded sampling
// and cancellation), so a cold derive simulates hundreds of steps per
// kwait instead of the horizon: the CI probe stream of 20 curves costs
// about 18 000 simulated steps instead of 19 million, and it never reaches
// the subnormal tails that made each full-horizon step ~40× slower than a
// normal-range one. CI pins this with a simSteps bound on the gateway
// e2e's reference stream. The lockstep walks then make each of those steps
// cheaper: on one worker the probe-0 curve samples in ~36 µs instead of
// ~65 µs, the diesel curve in ~1.3 ms instead of ~1.9 ms (BENCH_26.json
// against its parent, same host). With the fused power search, the
// sum-first stop test and no QR solve on certified loops, a servo
// calibration takes 67 allocations instead of 1 803 and about 0.4× the
// time, a cold probe derivation about 0.5×, and the probe-0 curve samples
// in ~0.7× (BENCH_29.json against its parent, same session).
//
// The benchmark trajectory is CI-gated: cpsrepro bench-export runs the
// kernel suite hermetically (testing.Benchmark in-process) and writes a
// JSON report, and the CI bench-compare job diffs every PR against its
// merge base, failing on a >15% geometric-mean ns/op regression or on any
// benchmark whose allocs/op increased. The gate compares two exports made
// in the same CI job, the PR's and its merge base's. The committed
// reports (BENCH_8.json through BENCH_29.json) are records of the
// trajectory, not the gate: on a shared host, drift alone moved untouched
// kernels 1.4–1.7× between them. Besides the kernels, the suite times the
// service's row path (DeriveRowWarm: a freshly compiled probe app on a
// warm cache), the CacheKey the gateway computes for every routed row,
// the allocation race, the NDJSON codec, the certified curve sampling of
// probe design 0, the diesel loop and §V loop C4 on one worker, one cold
// derivation (DeriveCold), and the persistent store's write-behind Put of
// the diesel curve's record with the Flush that waits for its append
// (StorePut) and a Get of it (StoreGet).
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
// it stops consuming CPU promptly. Each operation answers an item through
// one function, whatever the framing: a buffered endpoint compiles and
// validates every item, runs that function over a bounded worker pool and
// joins the per-item errors; a stream runs it per NDJSON row; in gateway
// mode the derive function tries the replica owning the app and falls
// back to the local derivation. Derive and calibrate reject duplicate app
// names, buffered with a 400, streamed as an error row.
//
// Every request follows one discipline. It takes an in-flight slot and
// computes on its handler goroutine under the compute budget, buffered or
// streamed alike; a budget overrun or disconnect cancels the work, and the
// handler answers once it has returned. One guard contains a panic in the
// smallest unit of work around it. A panicking item of a buffered
// fan-out, or the buffered request's own decode or compile, fails that
// request with a 500 ("internal error: …") and the daemon serves on; a
// panicking stream row becomes that row's error row and the rest of the
// stream is answered. The guard counts each panic it recovers (panics on
// /statsz, cpsdynd_panics_total), and every error status a handler writes
// counts by class (server.clientErrors and server.serverErrors for 4xx
// and 5xx), as do the 404 and 405 answers the mux writes itself for an
// unknown path or a wrong method; a stream's error rows are rows of its
// 200 response, not statuses. One helper counts cancellations and budget overruns for both
// framings. One rule resolves a client's worker request (the
// buffered workers field, a stream's ?workers=): the operator's -workers
// is the ceiling, GOMAXPROCS without it, and a request above it, or of 0,
// runs at the ceiling.
//
// # Streaming derivation (NDJSON)
//
// Thousand-app fleets should not ride in one JSON body. POST
// /v1/derive/stream accepts NDJSON — one service.DeriveAppSpec per request
// line — and answers with NDJSON result rows ({"index", "result"} or
// {"index", "error"}) flushed whenever the emitter would wait (for the next
// request line, or for a result still computing), so no row is held back
// while the server waits and rows that are ready together leave in one
// write. Rows are emitted in input order while later request lines are
// still being read, so result buffering stays O(workers + window) instead
// of O(batch) — the only per-row retention is the duplicate-name set (app
// names, not rows). The pieces are reusable: service.DecodeLines / service.DecodeRequests iterate request
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
// The codec has a typed path for the rows the hot endpoints carry: a
// derive request line, a single-fleet allocate body, a StreamRow and a
// single fleet's allocation reply are read and written by a byte-level
// reader and append encoders (internal/service/wire.go), without
// reflection. encoding/json is their reference and fallback: the reader
// declines anything it does not read exactly as encoding/json would
// (case-folded or repeated keys, null, escapes and non-ASCII in strings,
// numbers strconv rejects, a fleets batch, trailing data), the encoders
// decline non-finite floats and strings that need escaping, and
// encoding/json then answers on the same bytes. Every error text is
// therefore encoding/json's, and FuzzWireMatchesJSON holds the typed path
// to it bit for bit. Everything else — calibration specs, the buffered
// derive envelope, fleets batches, /statsz — stays on encoding/json.
//
// # Cluster layer (sharding gateway)
//
// Derivation is deterministic and keyed by exact plant bit patterns, so
// the memo cache partitions perfectly: route equal keys to one replica and
// each replica's LRU holds a disjoint, stable slice of the fleet's
// artefacts. internal/cluster implements that scale-out. A deterministic
// consistent-hash ring (cluster.Ring: FNV-1a, 128 virtual nodes per peer
// — a constant, so no two gateways can disagree on an owner —
// order-independent construction) maps every app's canonical
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
// circuit-broken (open at the third consecutive failure, for 5 s, then a
// half-open probe) costs only warmth: its rows are derived locally and
// counted — /statsz and /metrics expose per-peer health plus peerRows and
// peerFallbacks, and a replica's effective workers/streamWindow capacity
// is introspectable over its own /statsz.
//
// # Persistent derivation store
//
// The same determinism that lets the cluster shard the cache lets
// internal/store persist it: an artefact is a pure function of its
// bit-exact cache key, so a disk record can only ever disagree with a
// recomputation by being corrupt — staleness cannot exist. The store is
// content-addressed and one append-only log per directory:
// dir/records.log holds records back to back, each a 48-byte header
// (magic "CPSD", format version, artefact kind, the SHA-256 of the full
// cache-key string, payload length, CRC-32C of the payload) followed by a
// versioned binary payload in which every float64 crosses as its
// math.Float64bits pattern — a decoded discretisation or dwell curve is
// bit-identical to the encoded one, pinned by property tests that also
// prove every single-byte flip and truncation is rejected. The index maps
// a key's hash to the offset and size of its latest record, so a write is
// one append and a load one positioned read. Open indexes the log in
// order and cuts a torn tail, the half record a crash mid-append leaves;
// a record that fails its checks on load is counted as a loadError,
// unindexed and re-derived — never served, never fatal. Superseded,
// evicted and rejected records are dead bytes: once they outweigh the
// live ones and the log is past 1 MiB, the writer rewrites the live
// records, least recently used first, into a temp file and renames it over
// the log, so the log stays within max(2 × live bytes, 1 MiB) plus one
// record and a reopened store keeps the LRU order. A closed store holds no
// file descriptor. A directory written in the one-file-per-record layout
// that came before the log (dir/<hh>/<hex>.rec) is not read: it rejoins
// cold once, and its old files can be deleted.
//
// core.SetDeriveStore hangs the store (any core.ArtifactStore) under the
// in-memory LRU: a memory miss reads through the store before computing —
// inside the same single-flight entry, so concurrent callers share one
// disk read — and is counted as a diskHit, not a miss; a successful
// computation is written behind on a 256-slot queue that drops writes
// under saturation rather than stalling derivations. cpsdynd -cache-dir
// enables it (off by default; -cache-dir-bytes caps the live record
// bytes, oldest records evicted first, which holds the log within
// max(2 × the cap, 1 MiB) plus one record) and surfaces store
// loads/stores/loadErrors/dropped/writeErrors/records/bytes in /statsz
// and as
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
// the pipeline histograms (per-row derive, one sample per DeriveContext
// call; store load/store; peer round trip) are process-wide like the
// caches they instrument.
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
// Five project invariants are machine-checked by the internal/analysis
// suite, run as a blocking CI gate via cmd/cpsdynlint:
//
//   - Context flow (ctxflow): library code under internal/ neither mints
//     context.Background()/TODO() nor, holding a ctx, calls a non-context
//     variant that discards it — cancellation threads end to end, which is
//     what makes the service's compute budgets actually stop work. No
//     function is exempt: every cancellable library operation has one
//     exported entry point, which takes ctx first, and only main packages
//     and tests mint the root context.
//   - Allocation-free kernels (allocfree): functions on the simulation hot
//     path declare themselves allocation-free and the analyzer holds them
//     to it (no make/new/append, no map or slice literals, no closures).
//   - Determinism (determinism): the kernel packages (internal/mat,
//     switching, lti, sim, pwl) produce byte-identical output at any
//     worker count — no ordered writes under map iteration, no wall clock
//     or process-global rand, no unindexed goroutine fan-in. This is the
//     contract the cache keys, the streaming golden diffs and the cluster
//     sharding all rest on. No function is exempt.
//   - Lock and atomic discipline (lockguard): a mutex is released on every
//     path to a function exit, and is never held across an operation that
//     may block — channel operations, network I/O, context/WaitGroup
//     waits — as summarised transitively by the cross-package facts
//     internal/analysis.Load derives. No code calls the package-level
//     sync/atomic functions (AddInt64, LoadUint64, …): every atomic is a
//     typed atomic.Int64, atomic.Pointer, …, which has no plain access, so
//     a plain read racing with an atomic write cannot be written.
//   - Goroutine lifecycle (goroleak): every go statement in internal/
//     either reaches a join (WaitGroup/Cond Wait, channel receive, select,
//     range over a channel, a conc pool) on some path after the spawn, or
//     the goroutine body watches ctx.Done() — no fire-and-forget work that
//     outlives its request.
//
// The lock and goroutine checks are path-sensitive: they run forward
// dataflow over the intraprocedural control-flow graphs of
// internal/analysis/cfg, consulting per-function blocks/spawns summaries
// propagated bottom-up through the whole go list -deps closure
// (internal/analysis.Facts).
//
// Deliberate exceptions are declared where they occur, never in a central
// allowlist, using //cpsdyn: directives (each carrying its justification
// inline):
//
//	//cpsdyn:allocfree <why>      on a function: body must not allocate
//	//cpsdyn:lock-across <why>    on a function: may hold a lock across a
//	                              blocking operation (leaks still flagged)
//	//cpsdyn:detached <why>       on or above a go statement: deliberately
//	                              unjoined goroutine
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
