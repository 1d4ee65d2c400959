package store

import (
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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
	s, err := Open(dir, opts)
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

// A torn or corrupt record — here a flipped byte in place — must be
// rejected, counted, deleted and served as a miss, never crash or serve
// wrong data.
func TestStoreCorruptRecordRejectedAndSwept(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	putAndFlush(t, s, "disc|torn", randDiscrete(rng))
	s.Close()

	h := keyHash("disc|torn")
	path := filepath.Join(dir, hex.EncodeToString(h[:])[:2], hex.EncodeToString(h[:])+".rec")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, Options{})
	if v, ok := s2.Get("disc|torn"); ok {
		t.Fatalf("corrupt record served: %T", v)
	}
	st := s2.Stats()
	if st.LoadErrors != 1 || st.Loads != 0 {
		t.Fatalf("corrupt load: %+v", st)
	}
	if st.Records != 0 {
		t.Fatalf("corrupt record still indexed: %+v", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt record not deleted: %v", err)
	}
	// Re-storing under the same key heals the entry.
	want := randDiscrete(rng)
	putAndFlush(t, s2, "disc|torn", want)
	v, ok := s2.Get("disc|torn")
	if !ok {
		t.Fatal("healed record missing")
	}
	matricesIdentical(t, "Phi", v.(*lti.Discrete).Phi, want.Phi)
}

// Orphaned temp files — a crash between write and rename — are swept on
// Open and never indexed.
func TestStoreSweepsTempOrphans(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "ab"), 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "ab", "ab0000.rec.tmp")
	if err := os.WriteFile(orphan, []byte("half a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTestStore(t, dir, Options{})
	if st := s.Stats(); st.Records != 0 {
		t.Fatalf("orphan indexed: %+v", st)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan not swept: %v", err)
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
// write error, or dropped by the full queue. A regular file where the
// first record's <hh> fan-out directory belongs fails its mkdir even for
// root; a one-slot queue fed faster than the writer drops the rest.
func TestStoreCountsLostWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{QueueLen: 1})
	h := keyHash("disc|blocked")
	if err := os.WriteFile(filepath.Join(dir, hex.EncodeToString(h[:1])), nil, 0o644); err != nil {
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
	if st.WriteErrors == 0 || st.Dropped == 0 {
		t.Fatalf("want both loss paths counted: %+v", st)
	}
}

// Puts racing from several goroutines onto a small queue, then a Flush:
// every encodable Put ends up stored, failed or dropped, and Flush waits
// for the ones the writer took. Put counts a write as pending before it
// can reach the writer, so the writer's Done can never run first (which
// panicked with a negative WaitGroup counter). The race is not
// reproducible on demand; run with -race, this pins the accounting.
func TestConcurrentPutsAreAccounted(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{QueueLen: 2})
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
