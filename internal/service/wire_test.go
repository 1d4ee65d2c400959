package service

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// sameBits reports whether a and b hold the same value down to the float
// bits and the nil-ness of every slice: reflect.DeepEqual takes −0 for 0.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// checkDecode holds the typed decoder to encoding/json on data: what it
// accepts, decodeJSON accepts with the same value; what it declines, it
// leaves untouched.
func checkDecode[T any](t *testing.T, data []byte) {
	t.Helper()
	var typed T
	if !decodeTyped(data, &typed) {
		if !reflect.ValueOf(typed).IsZero() {
			t.Fatalf("%q: declined but wrote %+v", data, typed)
		}
		return
	}
	var ref T
	if err := decodeJSON(data, &ref); err != nil {
		t.Fatalf("%q: typed decoder accepts a %T encoding/json rejects: %v", data, ref, err)
	}
	if !sameBits(reflect.ValueOf(typed), reflect.ValueOf(ref)) {
		t.Fatalf("%q: typed %+v, encoding/json %+v", data, typed, ref)
	}
}

// wireGen draws rows and replies from fuzz bytes; an exhausted input draws
// zeros.
type wireGen struct{ data []byte }

func (g *wireGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *wireGen) int() int {
	n := int32(0)
	for i := 0; i < 4; i++ {
		n = n<<8 | int32(g.byte())
	}
	return int(n)
}

// wireFloats are the floats whose encoding/json form has edges: signed
// zeros, subnormals, both sides of the 1e-6 and 1e21 format switches,
// two-digit exponents, the largest float and the unsupported values.
var wireFloats = [...]float64{
	0, math.Copysign(0, -1), 1, -1.5, 0.1, 123456.789, 5e-324, -2.5e-310,
	1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 1e20, 1e21, -1e21, 1.5e300,
	math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

func (g *wireGen) float() float64 {
	b := g.byte()
	if int(b) < len(wireFloats) {
		return wireFloats[b]
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(g.byte())
	}
	return math.Float64frombits(bits)
}

// wireNames are strings at the typed encoder's edges: characters
// encoding/json escapes (HTML ones included) and non-ASCII text.
var wireNames = [...]string{
	"", "a", "C3", "loop-00ab12", `<&"é`, "x<y", "a>b", "a&b", `q"`, `back\slash`,
	"tab\t", "é", "\u2028", "del\x7f", "~ all printable !#$%'()*+,-./:;=?@[]^_`{|} ~",
}

func (g *wireGen) str() string {
	b := g.byte()
	if int(b) < len(wireNames) {
		return wireNames[b]
	}
	s := make([]byte, b%8)
	for i := range s {
		s[i] = g.byte()
	}
	return string(s)
}

func (g *wireGen) streamRow() StreamRow {
	flags := g.byte()
	row := StreamRow{Index: g.int(), Cancelled: flags&4 != 0}
	if flags&1 != 0 {
		row.Result = &DeriveResult{
			Name: g.str(), XiTT: g.float(), XiET: g.float(), XiM: g.float(),
			Kp: g.float(), XiPrimeM: g.float(), NonMonotonic: flags&8 != 0,
			Model: ModelSpec{Kind: g.str(), XiTT: g.float(), Kp: g.float(), XiM: g.float(), XiET: g.float()},
		}
	}
	if flags&2 != 0 {
		row.Error = g.str()
	}
	return row
}

func (g *wireGen) fleetResult() *FleetResult {
	flags := g.byte()
	if flags == 0xff {
		return nil
	}
	fr := &FleetResult{Name: g.str(), Slots: g.int(), Policy: g.str(), Method: g.str(), Unsafe: flags&1 != 0}
	if flags&2 != 0 {
		fr.Error = g.str()
	}
	if n := int(g.byte() % 5); n > 0 || flags&4 != 0 {
		fr.Apps = make([]AppResult, n)
	}
	for i := range fr.Apps {
		fr.Apps[i] = AppResult{Name: g.str(), Slot: g.int(), MaxWait: g.float(),
			WCRT: g.float(), Deadline: g.float(), Schedulable: g.byte()&1 != 0}
	}
	return fr
}

// errText renders an error for comparison; nil is "".
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// wireAccepted are inputs the typed decoder takes (as a DeriveAppSpec, an
// AllocateRequest or both); wireDeclined are the kinds of input it must
// leave to encoding/json.
var (
	wireAccepted = []string{
		`{"name":"S1","plant":{"name":"probe","a":[[0,1],[-2,-3]],"b":[[0],[1]]},"h":0.02,"delayTT":0.002,"delayET":0.02,"eth":0.1,"x0":[0,2],"r":8,"deadline":3,"polesTT":[0.8,0.7,0.05],"polesET":[0.93,0.88,0.1]}`,
		`{"policy":"race","apps":[{"name":"C3","r":15,"deadline":2,"model":{"kind":"non-monotonic","xiTT":0.39,"kp":0.69,"xiM":0.64,"xiET":3.97}}]}`,
		` {"name" : "a" ,"frameID": 7, "x0":[], "plant":{"a":[[],[ ]],"c":[]}}` + "\r\n\t",
		`{"h":-0,"r":-0.0e-0,"eth":1E+2,"deadline":2.5e-324,"delayTT":1e-400}`,
		`{"apps":[],"name":"","method":"fixed-point"}`,
		`{}`,
	}
	wireDeclined = []string{
		`{"Name":"a"}`,
		`{"name":"a","name":"b"}`,
		`{"x0":[1],"x0":[2]}`,
		`{"name":null}`,
		`{"x0":null}`,
		`{"plant":null}`,
		`{"name":"\u0041"}`,
		`{"name":"é"}`,
		"{\"name\":\"tab\there\"}",
		`{"fleets":[{"policy":"race","apps":[{"name":"a","r":1,"deadline":2,"model":{"kind":"simple"}}]}]}`,
		`{"name":"a"} x`,
		`{"name":"a"}{"name":"b"}`,
		`{"h":1e999}`,
		`{"frameID":1.5}`,
		`{"frameID":1e2}`,
		`{"frameID":9223372036854775808}`,
		`{"h":01}`,
		`{"h":.5}`,
		`{"h":1.}`,
		`{"h":+1}`,
		`{"h":"1"}`,
		`{"h":true}`,
		`{"unknown":1}`,
		`{"name":"a",}`,
		`[]`,
		`null`,
		``,
	}
)

// wireEncodeSeeds draw each edge float, with plain names, and each edge
// name, with plain floats, into every float or string of a row and a
// reply, alternating the optional parts (error, cancelled, unsafe); the
// last two draw an empty apps list and a nil reply.
func wireEncodeSeeds() [][]byte {
	seed := func(f, s, odd byte) []byte {
		b := []byte{1 | 2*odd | 4*odd | 8, 0, 0, 0, f + s, s, f, f, f, f, f, s, f, f, f, f}
		if odd == 1 {
			b = append(b, s) // the row's error
		}
		b = append(b, 3*odd, s, 0, 0, 0, 3, s, s)
		if odd == 1 {
			b = append(b, s) // the reply's error
		}
		return append(b, 2, s, 0, 0, 0, 1, f, f, f, 1, s, 0, 0, 0, 2, f, f, f, 0)
	}
	const plainFloat, plainName = 2, 1 // 1 and "a"
	var seeds [][]byte
	for f := range wireFloats {
		seeds = append(seeds, seed(byte(f), plainName, byte(f%2)))
	}
	for s := range wireNames {
		seeds = append(seeds, seed(plainFloat, byte(s), byte(s%2)))
	}
	return append(seeds, []byte{0, 0, 0, 0, 0, 4, 1, 0, 0, 0, 1, 2, 2, 0}, []byte{0, 0, 0, 0, 0, 0xff})
}

// FuzzWireMatchesJSON checks the typed codec against encoding/json, its
// reference. Decoding: whatever the typed decoder accepts, encoding/json
// accepts as the same value. Encoding: rows and replies drawn from the
// input encode to exactly the bytes of json.Marshal and of the indenting
// json.Encoder, or fail with exactly their error.
func FuzzWireMatchesJSON(f *testing.F) {
	for _, s := range append(wireAccepted, wireDeclined...) {
		f.Add([]byte(s))
	}
	for _, seed := range wireEncodeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode[DeriveAppSpec](t, data)
		checkDecode[AllocateRequest](t, data)

		g := wireGen{data: data}
		row := g.streamRow()
		var got bytes.Buffer
		gotErr := EncodeResult(&got, row)
		want, wantErr := json.Marshal(row)
		wantText := ""
		if wantErr == nil {
			want = append(want, '\n')
		} else {
			want, wantText = nil, "encoding result row: "+wantErr.Error()
		}
		if !bytes.Equal(got.Bytes(), want) || errText(gotErr) != wantText {
			t.Fatalf("row %+v: EncodeResult %q (%v), json.Marshal %q (%v)", row, got.Bytes(), gotErr, want, wantErr)
		}

		fr := g.fleetResult()
		body, gotErr := encodeReply(fr)
		var ref bytes.Buffer
		enc := json.NewEncoder(&ref)
		enc.SetIndent("", "  ")
		wantErr = enc.Encode(fr)
		if !bytes.Equal(body, ref.Bytes()) || errText(gotErr) != errText(wantErr) {
			t.Fatalf("reply %+v: typed %q (%v), json.Encoder %q (%v)", fr, body, gotErr, ref.Bytes(), wantErr)
		}
	})
}

// The typed path must actually take the hot shapes, or the codec silently
// falls back to reflection everywhere: the derive lines and the
// single-fleet allocate body clients send, the rows and fleet replies the
// service writes. The odd inputs decline, and decodeStrict answers them
// exactly like encoding/json.
func TestTypedCodecTakesTheWireShapes(t *testing.T) {
	for _, spec := range shardedDeriveRequest(4).Apps {
		line := wireJSON(t, &spec)
		var got DeriveAppSpec
		if !decodeTyped([]byte(line), &got) {
			t.Fatalf("typed decoder declined a derive line: %s", line)
		}
	}
	alloc := wireJSON(t, AllocateRequest{FleetRequest: FleetRequest{Name: "f", Policy: "race", Method: "closed-form",
		Apps: []AppSpec{{Name: "C3", R: 15, Deadline: 2, Model: ModelSpec{Kind: "non-monotonic", XiTT: 0.39, Kp: 0.69, XiM: 0.64, XiET: 3.97}}}}})
	var req AllocateRequest
	if !decodeTyped([]byte(alloc), &req) {
		t.Fatalf("typed decoder declined an allocate body: %s", alloc)
	}
	for _, s := range wireAccepted {
		var d DeriveAppSpec
		var a AllocateRequest
		if !decodeTyped([]byte(s), &d) && !decodeTyped([]byte(s), &a) {
			t.Errorf("typed decoder declined %s", s)
		}
	}
	for _, s := range wireDeclined {
		for _, v := range []any{new(DeriveAppSpec), new(AllocateRequest)} {
			if decodeTyped([]byte(s), v) {
				t.Errorf("typed decoder took %s as %T", s, v)
			}
			ref := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			if got, want := errText(decodeStrict([]byte(s), v)), errText(decodeJSON([]byte(s), ref)); got != want {
				t.Errorf("%s as %T: decodeStrict %q, encoding/json %q", s, v, got, want)
			}
		}
	}
	row := StreamRow{Index: 3, Result: &DeriveResult{Name: "S1", XiTT: 0.5, XiET: 2.25, XiM: 0.75,
		Kp: 1.5, XiPrimeM: 1e-7, NonMonotonic: true, Model: ModelSpec{Kind: "non-monotonic", XiTT: 0.5, Kp: 1.5, XiM: 0.75, XiET: 2.25}}}
	if _, ok := appendStreamRow(nil, &row); !ok {
		t.Error("typed encoder declined a result row")
	}
	fr := &FleetResult{Slots: 1, Policy: "race", Method: "closed-form",
		Apps: []AppResult{{Name: "C3", Slot: 1, MaxWait: 0.25, WCRT: 0.64, Deadline: 2, Schedulable: true}}}
	if _, ok := appendFleetReply(nil, fr); !ok {
		t.Error("typed encoder declined a fleet reply")
	}
}
