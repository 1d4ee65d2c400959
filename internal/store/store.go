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
// Layout: one append-only log per directory, dir/records.log, holding
// records back to back. A record carries magic/version, the SHA-256 of the
// full cache key, the payload length and a CRC-32C (see codec.go); the
// in-memory index maps the key hash to the offset and size of the key's
// latest record, so a later record of a key supersedes an earlier one.
// Open indexes the log in order and cuts a torn tail — a last header that
// frames no whole record, which is what a crash mid-append leaves. A
// record that fails validation on a Get (bit rot, format drift) is counted
// as a load error, unindexed and re-derived, never served. Records that
// are superseded, evicted or rejected are dead bytes; once they outweigh
// the live ones and the log is past compactFloor, the writer rewrites the
// live records into a fresh log and renames it over the old one, so the
// log stays within max(2 × live bytes, compactFloor) plus one record.
// Directories written before the log (dir/hh/<hex>.rec, one file per
// record) are not read: such a directory rejoins cold once.
//
// Writes are write-behind: Put enqueues onto a bounded queue drained by a
// single background writer, so cache fills never wait on disk; a saturated
// queue drops the write (counted in Stats.Dropped; the artefact stays in
// memory and can be re-offered after a future re-derivation). Each write
// is one append to the log. Loads are synchronous reads on the cache-miss
// path. An optional byte cap bounds the live records: least-recently-loaded
// records are evicted first.
package store

import (
	"bufio"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cpsdyn/internal/obs"
)

// Options tunes a Store.
type Options struct {
	// MaxBytes caps the total live record bytes; once exceeded the
	// least-recently-loaded records are evicted. ≤ 0 means unbounded.
	MaxBytes int64
}

// queueLen bounds the write-behind queue. A full queue drops further
// writes instead of blocking the compute path.
const queueLen = 256

const (
	// logName is the log's file name in the store's directory, and
	// tmpName the file a compaction writes before renaming it over the
	// log.
	logName = "records.log"
	tmpName = "records.log.tmp"
	// compactFloor is the log size below which dead records are left in
	// place: rewriting a small log buys back nothing worth its cost.
	compactFloor = 1 << 20
)

// Stats is a snapshot of the store's counters, exported by cpsdynd's
// /statsz and /metrics endpoints.
type Stats struct {
	Loads      uint64 `json:"loads" metric:"store_loads_total" help:"Records loaded from the persistent derivation store."`
	Stores     uint64 `json:"stores" metric:"store_stores_total" help:"Records written to the persistent derivation store."`
	LoadErrors uint64 `json:"loadErrors" metric:"store_load_errors_total" help:"Corrupt or torn records rejected on load: left out of the index and dropped by the next compaction."`
	// Dropped and WriteErrors count the writes the store loses: Puts
	// refused by a full write-behind queue, and queued writes whose
	// encode, log creation or append failed.
	Dropped     uint64 `json:"dropped" metric:"store_dropped_total" help:"Writes dropped because the write-behind queue was full."`
	WriteErrors uint64 `json:"writeErrors" metric:"store_write_errors_total" help:"Queued writes lost to an encode failure or to a failure creating or appending to the log."`
	Records     int    `json:"records" metric:"store_records" help:"Records currently indexed in the persistent derivation store."`
	// Bytes counts the live records, the ones the index serves; the log
	// also holds dead ones until a compaction.
	Bytes int64 `json:"bytes" metric:"store_bytes" help:"On-disk bytes retained by the persistent derivation store."`
}

// record is the in-memory index entry for one record of the log.
type record struct {
	hash      [32]byte // SHA-256 of the cache key
	off, size int64    // where the record sits in the log
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

	// fmu orders the reads of the log against the writer swapping f
	// (creating the log, compacting it, closing it): Gets hold it shared
	// from their index lookup to the end of their read, so the offset
	// they look up is one of the file they read.
	fmu sync.RWMutex
	f   *os.File // the log; nil while there is none (Open does not create it) and after Close

	mu     sync.Mutex
	index  map[[32]byte]*list.Element // hash → element holding *record
	lru    *list.List                 // front = most recently loaded/stored
	bytes  int64                      // live record bytes
	closed bool

	// The writer's own: the log's length, and after a failed compaction
	// the length at which to try again.
	size    int64
	retryAt int64

	queue   chan writeReq
	done    chan struct{}
	pending sync.WaitGroup
}

// Open creates (or reopens) a store rooted at dir, indexes the existing
// log in write order, cutting a torn tail, removes a compaction's leftover
// temp file, and starts the write-behind writer. Records are validated
// lazily: a corrupt one is only detected — and unindexed — when a Get
// reads it. Open does not create the log; the first write does.
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
		index:    make(map[[32]byte]*list.Element),
		lru:      list.New(),
		queue:    make(chan writeReq, qlen),
		done:     make(chan struct{}),
	}
	os.Remove(filepath.Join(dir, tmpName)) //nolint:errcheck // usually absent; a crash mid-compaction leaves it
	if err := s.load(); err != nil {
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

// load indexes an existing log oldest record first, so the byte cap
// evicts stale records before fresh ones and a later record of a key
// supersedes an earlier one, and cuts the log after its last whole record.
func (s *Store) load() error {
	f, err := os.OpenFile(filepath.Join(s.dir, logName), os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	end := info.Size()
	r := bufio.NewReaderSize(f, 64<<10)
	var hdr [headerLen]byte
	off := int64(0)
	for off+headerLen <= end {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		size := headerLen + int64(binary.LittleEndian.Uint32(hdr[40:44]))
		if [4]byte(hdr[0:4]) != magic || off+size > end {
			break
		}
		if _, err := r.Discard(int(size - headerLen)); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		s.index1(record{hash: [32]byte(hdr[8:40]), off: off, size: size})
		off += size
	}
	if off < end {
		if err := f.Truncate(off); err != nil {
			f.Close()
			return fmt.Errorf("store: cutting the log's torn tail: %w", err)
		}
	}
	s.f, s.size = f, off
	return nil
}

// index1 indexes r as its key's latest record and the most recently used
// one, superseding an earlier record of the key. The caller holds mu, or
// owns s alone.
func (s *Store) index1(r record) {
	if el, ok := s.index[r.hash]; ok {
		old := el.Value.(*record)
		s.bytes += r.size - old.size
		*old = r
		s.lru.MoveToFront(el)
		return
	}
	s.index[r.hash] = s.lru.PushFront(&r)
	s.bytes += r.size
}

// keyHash is the content address of a cache key.
func keyHash(key string) [32]byte { return sha256.Sum256([]byte(key)) }

// Get loads the artefact stored under key. A missing record is a plain
// miss; a record that fails validation (bit rot, hash or format mismatch)
// or cannot be read is counted once as a load error, unindexed, and
// reported as a miss so the caller re-derives. Gets keep working after
// Close. Get implements core.ArtifactStore.
func (s *Store) Get(key string) (any, bool) {
	// Every load attempt that touches disk is recorded — hit or corrupt
	// alike — so the histogram answers "what does a read-through cost",
	// not "what does a successful one cost". Pure index misses are not
	// timed: they never leave memory.
	h := keyHash(key)
	s.fmu.RLock()
	defer s.fmu.RUnlock()
	s.mu.Lock()
	var r record
	el, ok := s.index[h]
	if ok {
		s.lru.MoveToFront(el)
		r = *el.Value.(*record)
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	defer obs.StoreLoadLatency.Since(time.Now())
	data := make([]byte, r.size)
	err := s.readAt(data, r.off)
	if errors.Is(err, fs.ErrNotExist) {
		// The log was deleted underneath a closed store (operator
		// cleanup): a miss.
		s.unindex(r)
		return nil, false
	}
	var v any
	if err == nil {
		v, err = decodeRecord(data, h)
	}
	if err != nil {
		if s.unindex(r) {
			s.loadErrors.Add(1)
		}
		return nil, false
	}
	s.loads.Add(1)
	return v, true
}

// readAt fills p from the log at off: through the open log, or, once the
// store is closed, through a descriptor of its own. The caller holds fmu.
func (s *Store) readAt(p []byte, off int64) error {
	f := s.f
	if f == nil {
		var err error
		if f, err = os.Open(filepath.Join(s.dir, logName)); err != nil {
			return err
		}
		defer f.Close()
	}
	_, err := f.ReadAt(p, off)
	return err
}

// unindex forgets record r, unless a later write has replaced it, and
// reports whether it did; r's bytes turn dead.
func (s *Store) unindex(r record) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[r.hash]
	if !ok || *el.Value.(*record) != r {
		return false
	}
	s.bytes -= r.size
	s.lru.Remove(el)
	delete(s.index, r.hash)
	return true
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

// write persists one queued artefact: encode, append to the log, then
// index the record, enforce the byte cap and compact the log when its
// dead records outweigh the live ones. A failed step loses the write and
// counts it.
func (s *Store) write(req writeReq) {
	defer obs.StoreStoreLatency.Since(time.Now())
	h := keyHash(req.key)
	rec, err := encodeRecord(h, req.v)
	if err != nil {
		s.writeErrors.Add(1)
		return
	}
	off, err := s.append(rec)
	if err != nil {
		s.writeErrors.Add(1)
		return
	}
	s.stores.Add(1)

	s.mu.Lock()
	s.index1(record{hash: h, off: off, size: int64(len(rec))})
	// Enforce the cap, never evicting the just-written record: a single
	// oversized artefact stays (mirroring the memory cache) and the loop
	// terminates. An evicted record's bytes turn dead.
	for s.maxBytes > 0 && s.bytes > s.maxBytes && s.lru.Len() > 1 {
		victim := s.lru.Remove(s.lru.Back()).(*record)
		s.bytes -= victim.size
		delete(s.index, victim.hash)
	}
	live := s.bytes
	s.mu.Unlock()
	if s.size > compactFloor && s.size-live > live && s.size >= s.retryAt {
		s.compact()
	}
}

// append writes rec at the end of the log in one write, creating the log
// on first use, and returns its offset. A failed or short write cuts the
// log back to its last whole record.
func (s *Store) append(rec []byte) (int64, error) {
	if s.f == nil {
		f, err := os.OpenFile(filepath.Join(s.dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return 0, err
		}
		s.fmu.Lock()
		s.f = f
		s.fmu.Unlock()
	}
	off := s.size
	if _, err := s.f.WriteAt(rec, off); err != nil {
		s.f.Truncate(off) //nolint:errcheck // best effort: Open cuts a torn tail too
		return 0, err
	}
	s.size += int64(len(rec))
	return off, nil
}

// compact rewrites the live records, least recently used first, into a
// fresh log and renames it over the old one, so a reopened store indexes
// them in today's LRU order. The swap waits for the Gets reading the old
// log. A failed compaction leaves the old log as it is and is tried again
// once the log has grown by another compactFloor.
func (s *Store) compact() {
	s.mu.Lock()
	live := make([]record, 0, s.lru.Len())
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		live = append(live, *el.Value.(*record))
	}
	s.mu.Unlock()
	tmp := filepath.Join(s.dir, tmpName)
	f, err := s.rewrite(tmp, live)
	if err == nil {
		s.fmu.Lock()
		if err = os.Rename(tmp, filepath.Join(s.dir, logName)); err == nil {
			old := s.f
			s.f = f
			s.mu.Lock()
			off := int64(0)
			for _, r := range live {
				// A record a Get rejected meanwhile stays dead.
				if el, ok := s.index[r.hash]; ok {
					el.Value.(*record).off = off
				}
				off += r.size
			}
			s.mu.Unlock()
			s.size = off
			old.Close()
		}
		s.fmu.Unlock()
	}
	if err != nil {
		if f != nil {
			f.Close()
		}
		os.Remove(tmp) //nolint:errcheck // best effort: Open removes it too
		s.retryAt = s.size + compactFloor
	}
}

// rewrite copies the records in live, in order, from the log into a new
// file at path, and returns it open.
func (s *Store) rewrite(path string, live []record) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	var buf []byte
	for _, r := range live {
		if int64(cap(buf)) < r.size {
			buf = make([]byte, r.size)
		}
		if _, err := s.f.ReadAt(buf[:r.size], r.off); err != nil {
			return f, err
		}
		w.Write(buf[:r.size]) //nolint:errcheck // sticky: Flush reports it
	}
	return f, w.Flush()
}

// Flush blocks until every write enqueued before the call has reached
// disk. It is a test and shutdown aid; concurrent Puts during a Flush are
// not waited for.
func (s *Store) Flush() { s.pending.Wait() }

// Close drains the write-behind queue to disk, stops the writer and
// closes the log. Further Puts are ignored; Gets keep working (the index
// stays valid, and each Get then opens the log for its own read), so a
// server can close the store during drain while late requests still read
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
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
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
