package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
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
