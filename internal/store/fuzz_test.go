package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// frame wraps payload in a record header with the given kind, the key
// hash, the payload's length and its CRC, so the fuzzer's bytes reach the
// payload decoders instead of failing the header checks.
func frame(keyHash [32]byte, kind byte, payload []byte) []byte {
	rec := make([]byte, headerLen, headerLen+len(payload))
	copy(rec[0:4], magic[:])
	binary.LittleEndian.PutUint16(rec[4:6], version)
	rec[6] = kind
	copy(rec[8:40], keyHash[:])
	binary.LittleEndian.PutUint32(rec[40:44], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[44:48], crc32.Checksum(payload, crcTable))
	return append(rec, payload...)
}

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder, once as a
// whole record and once re-framed as the payload of each artefact kind.
// The decoder may reject anything but must never panic, and a record it
// accepts must be canonical: re-encoding the artefact under the same key
// hash gives back the very same bytes, so a record that loads is one this
// store could have written.
func FuzzDecodeRecord(f *testing.F) {
	h := keyHash("fuzz")
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 3; i++ {
		for _, v := range []any{randDiscrete(rng), randCurve(rng)} {
			rec, err := encodeRecord(h, v)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(rec)
			f.Add(rec[:headerLen+(len(rec)-headerLen)/2])
			f.Add(rec[headerLen:])
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rec := range [][]byte{data, frame(h, kindDiscrete, data), frame(h, kindCurve, data)} {
			v, err := decodeRecord(rec, h)
			if err != nil {
				continue
			}
			again, err := encodeRecord(h, v)
			if err != nil {
				t.Fatalf("decoded %T does not re-encode: %v", v, err)
			}
			if !bytes.Equal(again, rec) {
				t.Fatalf("decoder accepted a non-canonical record:\n in  %x\n out %x", rec, again)
			}
		}
	})
}

// FuzzStoreLog opens a store over a log the fuzzer has edited — records of
// a few known keys, a discretisation and a curve among them, with a byte
// range overwritten, the log cut short, or bytes appended — and Gets every
// key. Open must not fail on the log's content, and every Get must either
// miss or return exactly (Float64bits for Float64bits) a value that was
// put under its key.
func FuzzStoreLog(f *testing.F) {
	rng := rand.New(rand.NewSource(16))
	keys := []string{"disc|a", "curve|b", "disc|c", "curve|a"}
	put := map[string]map[string]bool{} // key → encodings of the values put under it
	var seed []byte
	add := func(key string, v any) {
		rec, err := encodeRecord(keyHash(key), v)
		if err != nil {
			f.Fatal(err)
		}
		if put[key] == nil {
			put[key] = map[string]bool{}
		}
		put[key][string(rec)] = true
		seed = append(seed, rec...)
	}
	add(keys[0], randDiscrete(rng))
	add(keys[1], randCurve(rng))
	add(keys[2], randDiscrete(rng))
	add(keys[0], randDiscrete(rng)) // supersedes the first record
	add(keys[3], randCurve(rng))
	f.Add(uint8(0), uint32(0), []byte{})
	f.Add(uint8(0), uint32(100), []byte{0xff, 0})
	f.Add(uint8(1), uint32(len(seed)/2), []byte{})
	f.Add(uint8(1), uint32(len(seed)-1), seed[:60])
	f.Add(uint8(2), uint32(0), seed[:headerLen+10])
	f.Fuzz(func(t *testing.T, op uint8, at uint32, data []byte) {
		log := append([]byte(nil), seed...)
		i := int(at % uint32(len(log)+1))
		switch op % 3 {
		case 0: // overwrite from i on
			log = append(log[:i:i], append(data, log[min(i+len(data), len(log)):]...)...)
		case 1: // cut at i, then append
			log = append(log[:i:i], data...)
		case 2: // append
			log = append(log, data...)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open failed on a log's content: %v", err)
		}
		defer s.Close()
		for _, key := range keys {
			v, ok := s.Get(key)
			if !ok {
				continue
			}
			rec, err := encodeRecord(keyHash(key), v)
			if err != nil || !put[key][string(rec)] {
				t.Fatalf("%s served a value never put under it (%v)", key, err)
			}
		}
	})
}
