package store

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/pwl"
	"cpsdyn/internal/switching"
)

// awkwardFloats are the values a format that round-trips through decimal
// text would mangle: signed zeros, infinities, NaN, denormals, and values
// differing only in the last mantissa bit.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	1.0, math.Nextafter(1.0, 2.0),
	0.1, 1e-300, -3.5e17,
}

func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return awkwardFloats[rng.Intn(len(awkwardFloats))]
	}
	// Arbitrary bit patterns, not just arithmetically reachable values.
	return math.Float64frombits(rng.Uint64())
}

func randMatrix(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, randFloat(rng))
		}
	}
	return m
}

func randDiscrete(rng *rand.Rand) *lti.Discrete {
	n := 1 + rng.Intn(6)
	m := 1 + rng.Intn(3)
	d := &lti.Discrete{
		Name:   fmt.Sprintf("plant-%d", rng.Intn(1000)),
		Phi:    randMatrix(rng, n, n),
		Gamma0: randMatrix(rng, n, m),
		Gamma1: randMatrix(rng, n, m),
		H:      randFloat(rng),
		D:      randFloat(rng),
	}
	if rng.Intn(4) != 0 {
		d.C = randMatrix(rng, 1+rng.Intn(2), n)
	}
	return d
}

func randCurve(rng *rand.Rand) *switching.Curve {
	c := &switching.Curve{
		XiTT:    randFloat(rng),
		XiET:    randFloat(rng),
		H:       randFloat(rng),
		Samples: make([]pwl.Point, rng.Intn(200)),
	}
	for i := range c.Samples {
		c.Samples[i] = pwl.Point{Wait: randFloat(rng), Dwell: randFloat(rng)}
	}
	return c
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func matricesIdentical(t *testing.T, what string, a, b *mat.Matrix) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch (%v vs %v)", what, a == nil, b == nil)
	}
	if a == nil {
		return
	}
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if !sameBits(a.At(i, j), b.At(i, j)) {
				t.Fatalf("%s[%d,%d]: %016x vs %016x", what, i, j,
					math.Float64bits(a.At(i, j)), math.Float64bits(b.At(i, j)))
			}
		}
	}
}

// The headline codec property: encode/decode round-trips every float64 as
// its exact bit pattern, so a disk-loaded artefact is indistinguishable
// from a re-derived one.
func TestCodecRoundTripDiscreteBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		want := randDiscrete(rng)
		h := keyHash(fmt.Sprintf("disc|%d", iter))
		rec, err := encodeRecord(h, want)
		if err != nil {
			t.Fatal(err)
		}
		v, err := decodeRecord(rec, h)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		got, ok := v.(*lti.Discrete)
		if !ok {
			t.Fatalf("decoded %T, want *lti.Discrete", v)
		}
		if got.Name != want.Name {
			t.Fatalf("name %q vs %q", got.Name, want.Name)
		}
		if !sameBits(got.H, want.H) || !sameBits(got.D, want.D) {
			t.Fatalf("H/D bits drifted")
		}
		matricesIdentical(t, "Phi", got.Phi, want.Phi)
		matricesIdentical(t, "Gamma0", got.Gamma0, want.Gamma0)
		matricesIdentical(t, "Gamma1", got.Gamma1, want.Gamma1)
		matricesIdentical(t, "C", got.C, want.C)
	}
}

func TestCodecRoundTripCurveBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 300; iter++ {
		want := randCurve(rng)
		h := keyHash(fmt.Sprintf("curve|%d", iter))
		rec, err := encodeRecord(h, want)
		if err != nil {
			t.Fatal(err)
		}
		v, err := decodeRecord(rec, h)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		got, ok := v.(*switching.Curve)
		if !ok {
			t.Fatalf("decoded %T, want *switching.Curve", v)
		}
		if !sameBits(got.XiTT, want.XiTT) || !sameBits(got.XiET, want.XiET) || !sameBits(got.H, want.H) {
			t.Fatalf("scalar bits drifted")
		}
		if len(got.Samples) != len(want.Samples) {
			t.Fatalf("%d samples, want %d", len(got.Samples), len(want.Samples))
		}
		for i := range want.Samples {
			if !sameBits(got.Samples[i].Wait, want.Samples[i].Wait) ||
				!sameBits(got.Samples[i].Dwell, want.Samples[i].Dwell) {
				t.Fatalf("sample %d bits drifted", i)
			}
		}
	}
}

// Every single-byte corruption of a valid record must decode to an error,
// never to a wrong artefact and never to a panic. (Flipping a payload bit
// trips the CRC; flipping a header bit trips magic/version/hash/length.)
func TestCodecRejectsEveryBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := keyHash("disc|victim")
	rec, err := encodeRecord(h, randDiscrete(rng))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(rec); off++ {
		mut := append([]byte(nil), rec...)
		mut[off] ^= 0x40
		if _, err := decodeRecord(mut, h); err == nil {
			t.Fatalf("byte %d flipped, record still decoded", off)
		}
	}
	// Truncations at every length must also fail cleanly.
	for n := 0; n < len(rec); n++ {
		if _, err := decodeRecord(rec[:n], h); err == nil {
			t.Fatalf("truncation to %d bytes still decoded", n)
		}
	}
}

func TestCodecRejectsWrongKeyHash(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := keyHash("curve|a")
	rec, err := encodeRecord(h, randCurve(rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRecord(rec, keyHash("curve|b")); err == nil {
		t.Fatal("record decoded under a different key")
	}
}

func openTestStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	return openQueueStore(t, dir, opts, queueLen)
}

// openQueueStore is openTestStore with a write-behind queue of qlen slots.
func openQueueStore(t *testing.T, dir string, opts Options, qlen int) *Store {
	t.Helper()
	s, err := open(dir, opts, qlen)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func putAndFlush(t *testing.T, s *Store, key string, v any) {
	t.Helper()
	s.Put(key, v)
	s.Flush()
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dir := t.TempDir()
	disc := randDiscrete(rng)
	curve := randCurve(rng)

	s := openTestStore(t, dir, Options{})
	putAndFlush(t, s, "disc|k1", disc)
	putAndFlush(t, s, "curve|k2", curve)
	if st := s.Stats(); st.Stores != 2 || st.Records != 2 || st.Bytes == 0 {
		t.Fatalf("after two puts: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh Store over the same directory — the restart — must index and
	// serve both records, bit-identically.
	s2 := openTestStore(t, dir, Options{})
	if st := s2.Stats(); st.Records != 2 {
		t.Fatalf("reopened store indexed %d records, want 2", st.Records)
	}
	v, ok := s2.Get("disc|k1")
	if !ok {
		t.Fatal("disc|k1 missing after reopen")
	}
	matricesIdentical(t, "Phi", v.(*lti.Discrete).Phi, disc.Phi)
	if _, ok := s2.Get("curve|k2"); !ok {
		t.Fatal("curve|k2 missing after reopen")
	}
	if st := s2.Stats(); st.Loads != 2 || st.LoadErrors != 0 {
		t.Fatalf("after two loads: %+v", st)
	}
	if _, ok := s2.Get("disc|never-stored"); ok {
		t.Fatal("phantom key served")
	}
}

// logPath is the log of the store in dir.
func logPath(dir string) string { return filepath.Join(dir, logName) }

// readLog returns the bytes of the log in dir.
func readLog(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(logPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// bigCurve is a curve whose record is about 64 KiB, so a few dozen
// re-puts of one key carry the log past compactFloor.
func bigCurve(rng *rand.Rand) *switching.Curve {
	c := randCurve(rng)
	c.Samples = make([]pwl.Point, 4000)
	for i := range c.Samples {
		c.Samples[i] = pwl.Point{Wait: randFloat(rng), Dwell: randFloat(rng)}
	}
	return c
}

// churn re-puts one key with fresh big curves until a compaction has
// shrunk the log.
func churn(t *testing.T, s *Store, dir, key string, rng *rand.Rand) {
	t.Helper()
	prev := len(readLog(t, dir))
	for i := 0; i < 100; i++ {
		putAndFlush(t, s, key, bigCurve(rng))
		size := len(readLog(t, dir))
		if size < prev {
			return
		}
		prev = size
	}
	t.Fatal("the log never compacted")
}

// A corrupt record — here a flipped byte inside it in the log — must be
// rejected, counted once, unindexed and served as a miss, never crash or
// serve wrong data; a re-put heals the key, and the next compaction drops
// the bad bytes from the log.
func TestStoreCorruptRecordRejectedAndSwept(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	putAndFlush(t, s, "disc|torn", randDiscrete(rng))
	s.Close()

	data := readLog(t, dir)
	data[len(data)-1] ^= 0xFF
	bad := append([]byte(nil), data...)
	if err := os.WriteFile(logPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, Options{})
	for i := 0; i < 2; i++ {
		if v, ok := s2.Get("disc|torn"); ok {
			t.Fatalf("corrupt record served: %T", v)
		}
	}
	st := s2.Stats()
	if st.LoadErrors != 1 || st.Loads != 0 {
		t.Fatalf("corrupt load: %+v", st)
	}
	if st.Records != 0 || st.Bytes != 0 {
		t.Fatalf("corrupt record still indexed: %+v", st)
	}
	// Re-storing under the same key heals the entry.
	want := randDiscrete(rng)
	putAndFlush(t, s2, "disc|torn", want)
	v, ok := s2.Get("disc|torn")
	if !ok {
		t.Fatal("healed record missing")
	}
	matricesIdentical(t, "Phi", v.(*lti.Discrete).Phi, want.Phi)
	// Compaction keeps the healed record and drops the bad one.
	churn(t, s2, dir, "curve|churn", rng)
	if log := readLog(t, dir); bytes.Contains(log, bad) {
		t.Fatal("the corrupt record survived a compaction")
	}
	v, ok = s2.Get("disc|torn")
	if !ok {
		t.Fatal("healed record lost in the compaction")
	}
	matricesIdentical(t, "Phi", v.(*lti.Discrete).Phi, want.Phi)
}

// A crash mid-append leaves half a record at the end of the log, and one
// mid-compaction a temp file: Open indexes only the whole records, cuts
// the tail and removes the temp file.
func TestStoreSweepsTempOrphans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	disc, curve := randDiscrete(rng), randCurve(rng)
	putAndFlush(t, s, "disc|a", disc)
	putAndFlush(t, s, "curve|b", curve)
	s.Close()
	whole := readLog(t, dir)
	torn, err := encodeRecord(keyHash("disc|torn"), randDiscrete(rng))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath(dir), append(append([]byte(nil), whole...), torn[:len(torn)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, tmpName)
	if err := os.WriteFile(orphan, []byte("half a compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTestStore(t, dir, Options{})
	if st := s2.Stats(); st.Records != 2 || st.Bytes != int64(len(whole)) {
		t.Fatalf("after reopening: %+v, want the 2 whole records (%d bytes)", st, len(whole))
	}
	if got := readLog(t, dir); !bytes.Equal(got, whole) {
		t.Fatalf("torn tail not cut: log is %d bytes, want %d", len(got), len(whole))
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan not swept: %v", err)
	}
	if _, ok := s2.Get("disc|torn"); ok {
		t.Fatal("torn record served")
	}
	v, ok := s2.Get("disc|a")
	if !ok {
		t.Fatal("disc|a lost")
	}
	matricesIdentical(t, "Phi", v.(*lti.Discrete).Phi, disc.Phi)
	if _, ok := s2.Get("curve|b"); !ok {
		t.Fatal("curve|b lost")
	}
	// Appends continue after the cut, and a reopened store finds them.
	putAndFlush(t, s2, "disc|c", disc)
	s2.Close()
	if st := openTestStore(t, dir, Options{}).Stats(); st.Records != 3 {
		t.Fatalf("after an append past the cut: %+v, want 3 records", st)
	}
}

// Compaction keeps every live record bit-identical, holds the log within
// max(2 × live bytes, compactFloor) plus one record, and writes the live
// records least recently used first, so a reopened store evicts in the
// order the closed one would have.
func TestStoreCompactionKeepsLiveRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	want := map[string]any{}
	put := func(key string, v any) {
		putAndFlush(t, s, key, v)
		want[key] = v
		size, live := int64(len(readLog(t, dir))), s.Stats().Bytes
		if bound := max(2*live, compactFloor) + 70<<10; size > bound {
			t.Fatalf("log is %d bytes with %d live, bound %d", size, live, bound)
		}
	}
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			put(fmt.Sprintf("disc|%d", i), randDiscrete(rng))
		} else {
			put(fmt.Sprintf("curve|%d", i), randCurve(rng))
		}
	}
	for _, i := range []int{3, 7, 1} {
		if _, ok := s.Get(fmt.Sprintf("curve|%d", i)); !ok {
			t.Fatalf("curve|%d missing", i)
		}
	}
	written := int64(0)
	for i := 0; i < 40; i++ {
		c := bigCurve(rng)
		if i%8 == 0 {
			put(fmt.Sprintf("curve|big%d", i), c)
		} else {
			put("curve|churn", c)
		}
		rec, _ := encodeRecord(keyHash("curve|churn"), c)
		written += int64(len(rec))
	}
	if size := int64(len(readLog(t, dir))); size >= written {
		t.Fatalf("log is %d bytes after %d bytes of writes: never compacted", size, written)
	}
	check := func(s *Store, when string) {
		t.Helper()
		for key, v := range want {
			got, ok := s.Get(key)
			if !ok {
				t.Fatalf("%s: %s missing", when, key)
			}
			h := keyHash(key)
			a, _ := encodeRecord(h, got)
			b, _ := encodeRecord(h, v)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: %s is not bit-identical to what was put", when, key)
			}
		}
	}
	order := func(s *Store) [][32]byte {
		var out [][32]byte
		for el := s.lru.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*record).hash)
		}
		return out
	}
	before := order(s)
	s.Close()
	s2 := openTestStore(t, dir, Options{})
	if after := order(s2); !slices.Equal(after, before) {
		t.Fatalf("LRU order changed across a reopen:\nbefore %x\nafter  %x", before, after)
	}
	check(s, "closed")
	check(s2, "reopened")
}

// A store of N records is one directory holding one log, and a closed
// store holds no descriptor of it.
func TestStoreIsOneLogAndCloseReleasesIt(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	if _, err := os.Stat(logPath(dir)); !os.IsNotExist(err) {
		t.Fatalf("Open created the log: %v", err)
	}
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("disc|%d", i), randDiscrete(rng))
	}
	s.Flush()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != logName || !entries[0].Type().IsRegular() {
		t.Fatalf("store directory holds %v, want just %s", entries, logName)
	}
	if s.Stats().Records != 20 {
		t.Fatalf("%+v, want 20 records", s.Stats())
	}
	openLogs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		n := 0
		for _, fd := range fds {
			if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == logPath(dir) {
				n++
			}
		}
		return n
	}
	if openLogs() != 1 {
		t.Fatalf("an open store holds %d descriptors of its log, want 1", openLogs())
	}
	s.Close()
	if n := openLogs(); n != 0 {
		t.Fatalf("a closed store holds %d descriptors of its log", n)
	}
	// Gets still serve, each on a descriptor of its own.
	if _, ok := s.Get("disc|7"); !ok || openLogs() != 0 {
		t.Fatal("a Get after Close failed or kept a descriptor")
	}
}

func TestStoreByteCapEvictsOldestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	// Size one record, then cap the store at roughly three of them.
	probe := randCurve(rng)
	probe.Samples = make([]pwl.Point, 100)
	h := keyHash("probe")
	rec, err := encodeRecord(h, probe)
	if err != nil {
		t.Fatal(err)
	}
	s := openTestStore(t, dir, Options{MaxBytes: int64(3*len(rec) + len(rec)/2)})
	for i := 0; i < 6; i++ {
		c := randCurve(rng)
		c.Samples = make([]pwl.Point, 100)
		putAndFlush(t, s, fmt.Sprintf("curve|%d", i), c)
	}
	st := s.Stats()
	if st.Records != 3 {
		t.Fatalf("cap kept %d records, want 3 (%+v)", st.Records, st)
	}
	if st.Bytes > int64(3*len(rec)+len(rec)/2) {
		t.Fatalf("bytes %d over cap", st.Bytes)
	}
	// The oldest writes were evicted; the newest survive.
	for i := 0; i < 3; i++ {
		if _, ok := s.Get(fmt.Sprintf("curve|%d", i)); ok {
			t.Fatalf("curve|%d survived the cap", i)
		}
	}
	for i := 3; i < 6; i++ {
		if _, ok := s.Get(fmt.Sprintf("curve|%d", i)); !ok {
			t.Fatalf("curve|%d evicted, want kept", i)
		}
	}
}

func TestStoreIgnoresUnsupportedValues(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{})
	putAndFlush(t, s, "weird", "not an artefact")
	putAndFlush(t, s, "weird2", 42)
	if st := s.Stats(); st.Stores != 0 || st.Records != 0 {
		t.Fatalf("unsupported values stored: %+v", st)
	}
}

func TestStorePutAfterCloseIsIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := openTestStore(t, t.TempDir(), Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Put("late", randDiscrete(rng)) // must not panic or deadlock
	if st := s.Stats(); st.Stores != 0 {
		t.Fatalf("post-Close put stored: %+v", st)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := openTestStore(t, t.TempDir(), Options{})
	artefacts := make([]*lti.Discrete, 16)
	for i := range artefacts {
		artefacts[i] = randDiscrete(rng)
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("disc|%d", (w*50+i)%len(artefacts))
				s.Put(k, artefacts[(w*50+i)%len(artefacts)])
				s.Get(k)
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	s.Flush()
	if st := s.Stats(); st.Records == 0 || st.Stores == 0 {
		t.Fatalf("concurrent churn stored nothing: %+v", st)
	}
}

// Every encodable Put is accounted once Flush returns: stored, lost to a
// write error, or dropped by the full queue. A directory where the log
// belongs fails every append, even for root; a one-slot queue fed faster
// than the writer drops the rest.
func TestStoreCountsLostWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	dir := t.TempDir()
	s := openQueueStore(t, dir, Options{}, 1)
	if err := os.Mkdir(logPath(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	disc := randDiscrete(rng)
	s.Put("disc|blocked", disc) // the queue is empty, so this one is written
	const puts = 64
	for i := 1; i < puts; i++ {
		s.Put(fmt.Sprintf("disc|%d", i), disc)
	}
	s.Put("weird", "not an artefact") // not encodable: not a lost write
	s.Flush()
	st := s.Stats()
	if got := st.Stores + st.WriteErrors + st.Dropped; got != puts {
		t.Fatalf("stores %d + write errors %d + dropped %d = %d, want %d encodable puts",
			st.Stores, st.WriteErrors, st.Dropped, got, puts)
	}
	if st.Stores != 0 || st.WriteErrors == 0 || st.Dropped == 0 {
		t.Fatalf("want every write lost, to both loss paths: %+v", st)
	}
}

// Puts racing from several goroutines onto a small queue, then a Flush:
// every encodable Put ends up stored, failed or dropped, and Flush waits
// for the ones the writer took. Put counts a write as pending before it
// can reach the writer, so the writer's Done can never run first (which
// panicked with a negative WaitGroup counter). The race is not
// reproducible on demand; run with -race, this pins the accounting.
func TestConcurrentPutsAreAccounted(t *testing.T) {
	s := openQueueStore(t, t.TempDir(), Options{}, 2)
	disc := randDiscrete(rand.New(rand.NewSource(15)))
	const writers, perWriter = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Put(fmt.Sprintf("disc|%d|%d", w, i), disc)
				if i%8 == 0 {
					s.Put("skip", "not an artefact")
				}
			}
		}()
	}
	wg.Wait()
	s.Flush()
	st := s.Stats()
	if got := st.Stores + st.WriteErrors + st.Dropped; got != writers*perWriter {
		t.Fatalf("stores %d + write errors %d + dropped %d = %d, want %d encodable puts",
			st.Stores, st.WriteErrors, st.Dropped, got, writers*perWriter)
	}
	if st.Records != int(st.Stores) {
		t.Fatalf("%d records indexed after Flush, want the %d stored", st.Records, st.Stores)
	}
}
