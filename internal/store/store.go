// Package store is the persistent, content-addressed derivation store: a
// disk-backed layer beneath core's in-memory memo cache. Every cached
// artefact — a delay-split discretisation (*lti.Discrete) or an
// exhaustively sampled dwell curve (*switching.Curve) — is deterministic
// and keyed by the exact bit pattern of its inputs, so persisting it is
// safe by construction: a record loaded from disk is bit-identical to one
// re-derived from scratch. A replica restarted with the same directory
// rejoins its consistent-hash shard warm instead of re-deriving its whole
// slice of the fleet.
//
// Layout: one binary record per key under two-level fan-out directories,
// dir/hh/<sha256-hex>.rec, where the hash is the SHA-256 of the full cache
// key string. Records carry magic/version, the key hash, the payload
// length and a CRC-32C (see codec.go); anything that fails validation —
// torn writes, bit rot, format drift — is rejected, counted as a load
// error, deleted, and silently re-derived. Writes go through a temp file
// and an atomic rename, so a crash mid-write leaves either the old record
// or a *.tmp orphan (swept on Open), never a half record under the live
// name.
//
// Writes are write-behind: Put enqueues onto a bounded queue drained by a
// single background writer, so cache fills never wait on disk; a saturated
// queue drops the write (counted in Stats.Dropped; the artefact stays in
// memory and can be re-offered after a future re-derivation). Loads are
// synchronous reads on the cache-miss path. An optional byte cap bounds
// the directory: least-recently-loaded records are deleted first.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cpsdyn/internal/obs"
)

// Options tunes a Store.
type Options struct {
	// MaxBytes caps the total on-disk record bytes; once exceeded the
	// least-recently-loaded records are deleted. ≤ 0 means unbounded.
	MaxBytes int64
}

// queueLen bounds the write-behind queue. A full queue drops further
// writes instead of blocking the compute path.
const queueLen = 256

// Stats is a snapshot of the store's counters, exported by cpsdynd's
// /statsz and /metrics endpoints.
type Stats struct {
	Loads      uint64 `json:"loads" metric:"store_loads_total" help:"Records loaded from the persistent derivation store."`
	Stores     uint64 `json:"stores" metric:"store_stores_total" help:"Records written to the persistent derivation store."`
	LoadErrors uint64 `json:"loadErrors" metric:"store_load_errors_total" help:"Corrupt or torn records rejected (and deleted) on load."`
	// Dropped and WriteErrors count the writes the store loses: Puts
	// refused by a full write-behind queue, and queued writes whose
	// encode, mkdir, write or rename failed.
	Dropped     uint64 `json:"dropped" metric:"store_dropped_total" help:"Writes dropped because the write-behind queue was full."`
	WriteErrors uint64 `json:"writeErrors" metric:"store_write_errors_total" help:"Queued writes lost to an encode, mkdir, write or rename failure."`
	Records     int    `json:"records" metric:"store_records" help:"Records currently indexed in the persistent derivation store."`
	Bytes       int64  `json:"bytes" metric:"store_bytes" help:"On-disk bytes retained by the persistent derivation store."`
}

// record is the in-memory index entry for one on-disk record.
type record struct {
	hash string // hex SHA-256 of the cache key; also the file name stem
	size int64
}

type writeReq struct {
	key string
	v   any
}

// Store is a content-addressed disk store for derivation artefacts. It is
// safe for concurrent use; one process owns a directory at a time.
type Store struct {
	dir      string
	maxBytes int64

	loads       atomic.Uint64
	stores      atomic.Uint64
	loadErrors  atomic.Uint64
	dropped     atomic.Uint64
	writeErrors atomic.Uint64

	mu     sync.Mutex
	index  map[string]*list.Element // hash → element holding *record
	lru    *list.List               // front = most recently loaded/stored
	bytes  int64
	closed bool

	queue   chan writeReq
	done    chan struct{}
	pending sync.WaitGroup
}

// Open creates (or reopens) a store rooted at dir, sweeps orphaned temp
// files, indexes the existing records by modification time, and starts the
// write-behind writer. Records are validated lazily: a corrupt file is
// only detected — and deleted — when a Get reads it.
func Open(dir string, opts Options) (*Store, error) {
	return open(dir, opts, queueLen)
}

// open is Open with a write-behind queue of qlen slots.
func open(dir string, opts Options, qlen int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: opts.MaxBytes,
		index:    make(map[string]*list.Element),
		lru:      list.New(),
		queue:    make(chan writeReq, qlen),
		done:     make(chan struct{}),
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	//cpsdyn:detached bounded by Close: closing the queue ends the range loop and Close blocks on done until the writer exits
	go func() {
		defer close(s.done)
		for req := range s.queue {
			s.write(req)
			s.pending.Done()
		}
	}()
	return s, nil
}

// scan indexes the directory's existing records oldest-first so the byte
// cap evicts stale records before fresh ones, and removes temp-file
// orphans left by a crash mid-write.
func (s *Store) scan() error {
	fanouts, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	type found struct {
		hash  string
		size  int64
		mtime time.Time
	}
	var recs []found
	for _, fd := range fanouts {
		if !fd.IsDir() || len(fd.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, fd.Name()))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, f := range files {
			name := f.Name()
			if strings.HasSuffix(name, ".tmp") {
				os.Remove(filepath.Join(s.dir, fd.Name(), name)) //nolint:errcheck // best-effort sweep
				continue
			}
			hash, ok := strings.CutSuffix(name, ".rec")
			if !ok || !strings.HasPrefix(hash, fd.Name()) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue // deleted underneath us; not an error
			}
			recs = append(recs, found{hash: hash, size: info.Size(), mtime: info.ModTime()})
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].mtime.Before(recs[j].mtime) })
	for _, r := range recs {
		s.index[r.hash] = s.lru.PushFront(&record{hash: r.hash, size: r.size})
		s.bytes += r.size
	}
	return nil
}

// keyHash is the content address of a cache key.
func keyHash(key string) [32]byte { return sha256.Sum256([]byte(key)) }

func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash+".rec")
}

// Get loads the artefact stored under key. A missing record is a plain
// miss; a record that fails validation (torn write, bit rot, hash or
// format mismatch) is counted as a load error, deleted, and reported as a
// miss so the caller re-derives. Get implements core.ArtifactStore.
func (s *Store) Get(key string) (any, bool) {
	// Every load attempt that touches disk is recorded — hit or corrupt
	// alike — so the histogram answers "what does a read-through cost",
	// not "what does a successful one cost". Pure index misses are not
	// timed: they never leave memory.
	h := keyHash(key)
	hash := hex.EncodeToString(h[:])
	s.mu.Lock()
	el, ok := s.index[hash]
	if ok {
		s.lru.MoveToFront(el)
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	defer obs.StoreLoadLatency.Since(time.Now())
	data, err := os.ReadFile(s.path(hash))
	if err != nil {
		if os.IsNotExist(err) {
			// Deleted underneath the index (operator cleanup): a miss.
			s.drop(hash, false)
			return nil, false
		}
		s.loadErrors.Add(1)
		s.drop(hash, false)
		return nil, false
	}
	v, err := decodeRecord(data, h)
	if err != nil {
		s.loadErrors.Add(1)
		s.drop(hash, true)
		return nil, false
	}
	s.loads.Add(1)
	return v, true
}

// drop forgets one record, optionally deleting its file.
func (s *Store) drop(hash string, unlink bool) {
	s.mu.Lock()
	if el, ok := s.index[hash]; ok {
		s.bytes -= el.Value.(*record).size
		s.lru.Remove(el)
		delete(s.index, hash)
	}
	s.mu.Unlock()
	if unlink {
		os.Remove(s.path(hash)) //nolint:errcheck // best-effort: a leftover file re-fails CRC
	}
}

// Put enqueues the artefact for write-behind persistence. Unsupported
// types and writes arriving after Close are ignored; a saturated queue
// drops the write rather than stalling the caller. Put implements
// core.ArtifactStore.
func (s *Store) Put(key string, v any) {
	if !encodable(v) {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	// Count the write before the send: the writer may take it and call
	// Done before a later Add could run, which would drive the counter
	// negative (a panic) and let Flush return before the write lands.
	s.pending.Add(1)
	select {
	case s.queue <- writeReq{key: key, v: v}:
	default:
		// Queue saturated: drop. Write-behind is advisory — the artefact
		// stays in the memory cache and the fleet re-offers it on the next
		// cold derivation.
		s.pending.Done()
		s.dropped.Add(1)
	}
	s.mu.Unlock()
}

// write persists one queued artefact: encode, write to a temp file in the
// same directory, atomically rename over the live name, then account the
// record and enforce the byte cap. A failed step loses the write and
// counts it.
func (s *Store) write(req writeReq) {
	defer obs.StoreStoreLatency.Since(time.Now())
	h := keyHash(req.key)
	rec, err := encodeRecord(h, req.v)
	if err != nil {
		s.writeErrors.Add(1)
		return
	}
	hash := hex.EncodeToString(h[:])
	path := s.path(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		s.writeErrors.Add(1)
		return
	}
	// The single writer goroutine owns all temp names, so the suffix needs
	// no uniquifier; rename is atomic on POSIX, so readers see the old
	// record or the new one, never a torn one.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, rec, 0o644); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		s.writeErrors.Add(1)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		s.writeErrors.Add(1)
		return
	}
	s.stores.Add(1)

	size := int64(len(rec))
	var victims []string
	s.mu.Lock()
	if el, ok := s.index[hash]; ok {
		r := el.Value.(*record)
		s.bytes += size - r.size
		r.size = size
		s.lru.MoveToFront(el)
	} else {
		s.index[hash] = s.lru.PushFront(&record{hash: hash, size: size})
		s.bytes += size
	}
	// Enforce the cap, never evicting the just-written record: a single
	// oversized artefact stays (mirroring the memory cache) and the loop
	// terminates.
	for s.maxBytes > 0 && s.bytes > s.maxBytes && s.lru.Len() > 1 {
		victim := s.lru.Back().Value.(*record)
		s.bytes -= victim.size
		s.lru.Remove(s.lru.Back())
		delete(s.index, victim.hash)
		victims = append(victims, victim.hash)
	}
	s.mu.Unlock()
	for _, v := range victims {
		os.Remove(s.path(v)) //nolint:errcheck // already unindexed; re-Open resweeps
	}
}

// Flush blocks until every write enqueued before the call has reached
// disk. It is a test and shutdown aid; concurrent Puts during a Flush are
// not waited for.
func (s *Store) Flush() { s.pending.Wait() }

// Close drains the write-behind queue to disk and stops the writer.
// Further Puts are ignored; Gets keep working (the index stays valid), so
// a server can close the store during drain while late requests still read
// warm records.
func (s *Store) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.queue)
	}
	<-s.done
	return nil
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	records, bytes := s.lru.Len(), s.bytes
	s.mu.Unlock()
	return Stats{
		Loads:       s.loads.Load(),
		Stores:      s.stores.Load(),
		LoadErrors:  s.loadErrors.Load(),
		Dropped:     s.dropped.Load(),
		WriteErrors: s.writeErrors.Load(),
		Records:     records,
		Bytes:       bytes,
	}
}
