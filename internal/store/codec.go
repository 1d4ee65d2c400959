package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/pwl"
	"cpsdyn/internal/switching"
)

// Record layout (all integers little-endian):
//
//	offset  size  field
//	     0     4  magic "CPSD"
//	     4     2  format version (currently 1)
//	     6     1  artefact kind (1 = lti.Discrete, 2 = switching.Curve)
//	     7     1  reserved (zero)
//	     8    32  SHA-256 of the full cache-key string
//	    40     4  payload length in bytes
//	    44     4  CRC-32C (Castagnoli) of the payload
//	    48     …  payload
//
// The key hash is stored redundantly with the file name so a record
// misplaced on disk (or a truncated-hash collision) is rejected rather
// than served under the wrong key, and the CRC rejects torn or bit-rotted
// payloads. Every float64 crosses the codec as its math.Float64bits
// pattern, so a decoded artefact is bit-identical to the encoded one —
// the same contract the cache keys themselves are built on.

const (
	headerLen = 48
	version   = 1

	kindDiscrete = 1
	kindCurve    = 2

	// nilMatrix marks a nil *mat.Matrix in the row-count slot.
	nilMatrix = ^uint32(0)
	// maxDim bounds decoded matrix dimensions; real plants are order ≤ 16,
	// so anything larger is a corrupt length that happened to pass the CRC.
	maxDim = 1 << 12
	// maxName bounds the decoded plant-name length.
	maxName = 1 << 16
)

var magic = [4]byte{'C', 'P', 'S', 'D'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	errUnsupported = errors.New("store: unsupported artefact type")
	errCorrupt     = errors.New("store: corrupt record")
)

// encodable reports whether Put can persist v.
func encodable(v any) bool {
	switch v.(type) {
	case *lti.Discrete, *switching.Curve:
		return true
	}
	return false
}

// encodeRecord serialises one artefact into a complete record (header and
// payload) addressed by the given key hash. The payload's length is known
// before it is written, so the record is one exact-length allocation: the
// payload is appended behind the header's room, and the header, which
// carries the payload's length and CRC, is written last.
func encodeRecord(keyHash [32]byte, v any) ([]byte, error) {
	var kind byte
	var e enc
	switch x := v.(type) {
	case *lti.Discrete:
		kind = kindDiscrete
		e.b = make([]byte, headerLen, headerLen+discreteLen(x))
		e.discrete(x)
	case *switching.Curve:
		kind = kindCurve
		e.b = make([]byte, headerLen, headerLen+curveLen(x))
		e.curve(x)
	default:
		return nil, errUnsupported
	}
	rec, payload := e.b, e.b[headerLen:]
	copy(rec[0:4], magic[:])
	binary.LittleEndian.PutUint16(rec[4:6], version)
	rec[6] = kind
	copy(rec[8:40], keyHash[:])
	binary.LittleEndian.PutUint32(rec[40:44], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[44:48], crc32.Checksum(payload, crcTable))
	return rec, nil
}

// decodeRecord validates a record against the expected key hash and decodes
// its artefact. Any structural problem — wrong magic, unknown version or
// kind, hash mismatch, bad length, CRC failure, truncated or trailing
// payload bytes — is an error, never a panic: the caller treats it as a
// miss and re-derives.
func decodeRecord(data []byte, keyHash [32]byte) (any, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes, want ≥ %d", errCorrupt, len(data), headerLen)
	}
	if [4]byte(data[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", errCorrupt)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != version {
		return nil, fmt.Errorf("%w: format version %d, want %d", errCorrupt, v, version)
	}
	if data[7] != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved byte", errCorrupt)
	}
	if [32]byte(data[8:40]) != keyHash {
		return nil, fmt.Errorf("%w: key hash mismatch", errCorrupt)
	}
	plen := binary.LittleEndian.Uint32(data[40:44])
	payload := data[headerLen:]
	if uint32(len(payload)) != plen {
		return nil, fmt.Errorf("%w: payload is %d bytes, header says %d", errCorrupt, len(payload), plen)
	}
	if crc := crc32.Checksum(payload, crcTable); crc != binary.LittleEndian.Uint32(data[44:48]) {
		return nil, fmt.Errorf("%w: CRC mismatch", errCorrupt)
	}
	d := dec{b: payload}
	var v any
	switch kind := data[6]; kind {
	case kindDiscrete:
		v = d.discrete()
	case kindCurve:
		v = d.curve()
	default:
		return nil, fmt.Errorf("%w: unknown artefact kind %d", errCorrupt, kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", errCorrupt, len(d.b))
	}
	return v, nil
}

// enc builds a payload; every write appends to b.
type enc struct{ b []byte }

func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *enc) str(s string)  { e.u32(uint32(len(s))); e.b = append(e.b, s...) }

func (e *enc) matrix(m *mat.Matrix) {
	if m == nil {
		e.u32(nilMatrix)
		return
	}
	e.u32(uint32(m.Rows()))
	e.u32(uint32(m.Cols()))
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			e.f64(m.At(i, j))
		}
	}
}

// matrixLen, discreteLen and curveLen are the lengths enc's matrix,
// discrete and curve append.
func matrixLen(m *mat.Matrix) int {
	if m == nil {
		return 4
	}
	return 8 + 8*m.Rows()*m.Cols()
}

func discreteLen(d *lti.Discrete) int {
	return 4 + len(d.Name) + 16 + matrixLen(d.Phi) + matrixLen(d.Gamma0) + matrixLen(d.Gamma1) + matrixLen(d.C)
}

func curveLen(c *switching.Curve) int { return 28 + 16*len(c.Samples) }

func (e *enc) discrete(d *lti.Discrete) {
	e.str(d.Name)
	e.f64(d.H)
	e.f64(d.D)
	e.matrix(d.Phi)
	e.matrix(d.Gamma0)
	e.matrix(d.Gamma1)
	e.matrix(d.C)
}

func (e *enc) curve(c *switching.Curve) {
	e.f64(c.H)
	e.f64(c.XiTT)
	e.f64(c.XiET)
	e.u32(uint32(len(c.Samples)))
	for _, p := range c.Samples {
		e.f64(p.Wait)
		e.f64(p.Dwell)
	}
}

// dec consumes a payload with a sticky error; reads after a failure return
// zero values, so decoders stay straight-line and check err once.
type dec struct {
	b   []byte
	err error
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b) < n {
		d.err = fmt.Errorf("%w: truncated payload", errCorrupt)
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) f64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (d *dec) str() string {
	n := d.u32()
	if d.err == nil && n > maxName {
		d.err = fmt.Errorf("%w: %d-byte name", errCorrupt, n)
	}
	b := d.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *dec) matrix() *mat.Matrix {
	r := d.u32()
	if r == nilMatrix {
		return nil
	}
	c := d.u32()
	if d.err != nil {
		return nil
	}
	if r > maxDim || c > maxDim {
		d.err = fmt.Errorf("%w: %d×%d matrix", errCorrupt, r, c)
		return nil
	}
	// Bound the allocation by what the payload can actually hold before
	// trusting the dimensions.
	if int(r)*int(c)*8 > len(d.b) {
		d.err = fmt.Errorf("%w: %d×%d matrix exceeds payload", errCorrupt, r, c)
		return nil
	}
	m := mat.New(int(r), int(c))
	for i := 0; i < int(r); i++ {
		for j := 0; j < int(c); j++ {
			m.Set(i, j, d.f64())
		}
	}
	return m
}

func (d *dec) discrete() *lti.Discrete {
	v := &lti.Discrete{
		Name:   d.str(),
		H:      d.f64(),
		D:      d.f64(),
		Phi:    d.matrix(),
		Gamma0: d.matrix(),
		Gamma1: d.matrix(),
		C:      d.matrix(),
	}
	if d.err != nil {
		return nil
	}
	if v.Phi == nil || v.Gamma0 == nil || v.Gamma1 == nil {
		d.err = fmt.Errorf("%w: discretisation with nil system matrices", errCorrupt)
		return nil
	}
	return v
}

func (d *dec) curve() *switching.Curve {
	v := &switching.Curve{
		H:    d.f64(),
		XiTT: d.f64(),
		XiET: d.f64(),
	}
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if int(n)*16 != len(d.b) {
		d.err = fmt.Errorf("%w: %d samples in a %d-byte tail", errCorrupt, n, len(d.b))
		return nil
	}
	v.Samples = make([]pwl.Point, n)
	for i := range v.Samples {
		v.Samples[i].Wait = d.f64()
		v.Samples[i].Dwell = d.f64()
	}
	return v
}
