package service

import (
	"math"
	"strconv"
)

// This file is the typed half of the wire codec. It decodes the two request
// shapes the hot endpoints receive, one DeriveAppSpec per
// /v1/derive/stream line and a single-fleet /v1/allocate body, and encodes
// the two replies they send, a StreamRow and a single fleet's FleetResult,
// without reflection. encoding/json is both its reference and its
// fallback: the decoder declines every input it does not read exactly as
// encoding/json would, and decodeStrict then hands the same bytes to
// encoding/json; the encoders decline every value whose encoding/json form
// they do not reproduce byte for byte, and encoding/json writes it
// instead. Declining is the only way either half fails, so every error
// text, and every odd but valid input, keeps encoding/json's answer.

// decodeTyped decodes body into v when v is a *DeriveAppSpec or a
// *AllocateRequest and body stays inside the subset the reader handles:
// keys spelled exactly like their tags, each at most once; strings of
// printable ASCII without escapes; numbers strconv parses as encoding/json
// does; no null; for an AllocateRequest, no "fleets"; nothing but
// whitespace after the value. It reports false, leaving v untouched,
// otherwise.
func decodeTyped(body []byte, v any) bool {
	r := wireReader{b: body}
	switch v := v.(type) {
	case *DeriveAppSpec:
		var s DeriveAppSpec
		if r.deriveSpec(&s) && r.end() {
			*v = s
			return true
		}
	case *AllocateRequest:
		var a AllocateRequest
		if r.fleet(&a.FleetRequest) && r.end() {
			*v = a
			return true
		}
	}
	return false
}

// wireReader walks one JSON value. Every method reports false when the
// input leaves the subset decodeTyped handles.
type wireReader struct {
	b []byte
	i int
}

func (r *wireReader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (r *wireReader) next(c byte) bool {
	r.ws()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (r *wireReader) end() bool {
	r.ws()
	return r.i == len(r.b)
}

// rawStr reads a string of printable ASCII other than '\\' and returns its
// bytes, which alias the input.
func (r *wireReader) rawStr() ([]byte, bool) {
	if !r.next('"') {
		return nil, false
	}
	for start := r.i; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; {
		case c == '"':
			r.i++
			return r.b[start : r.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (r *wireReader) str(dst *string) bool {
	s, ok := r.rawStr()
	if ok {
		*dst = string(s)
	}
	return ok
}

// number reads one token of the JSON number grammar.
func (r *wireReader) number() ([]byte, bool) {
	r.ws()
	start := r.i
	if r.i < len(r.b) && r.b[r.i] == '-' {
		r.i++
	}
	switch {
	case r.i < len(r.b) && r.b[r.i] == '0':
		r.i++
	case !r.digits():
		return nil, false
	}
	if r.i < len(r.b) && r.b[r.i] == '.' {
		r.i++
		if !r.digits() {
			return nil, false
		}
	}
	if r.i < len(r.b) && (r.b[r.i] == 'e' || r.b[r.i] == 'E') {
		r.i++
		if r.i < len(r.b) && (r.b[r.i] == '+' || r.b[r.i] == '-') {
			r.i++
		}
		if !r.digits() {
			return nil, false
		}
	}
	return r.b[start:r.i], true
}

func (r *wireReader) digits() bool {
	start := r.i
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i > start
}

// float reads a number the way encoding/json stores one in a float64.
func (r *wireReader) float(dst *float64) bool {
	tok, ok := r.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return false
	}
	*dst = f
	return true
}

// int reads a number the way encoding/json stores one in an int.
func (r *wireReader) int(dst *int) bool {
	tok, ok := r.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || int64(int(n)) != n {
		return false
	}
	*dst = int(n)
	return true
}

// array reads a JSON array, calling elem once per element.
func (r *wireReader) array(elem func() bool) bool {
	if !r.next('[') {
		return false
	}
	if r.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if r.next(']') {
			return true
		}
		if !r.next(',') {
			return false
		}
	}
}

// floats reads a []float64. Like encoding/json it makes [] an empty,
// non-nil slice: a gateway re-marshals the spec, and "x0":[] is not
// "x0":null. Elements gather on the stack and are copied out once.
func (r *wireReader) floats(dst *[]float64) bool {
	var buf [8]float64
	vals := buf[:0]
	if !r.array(func() bool {
		var f float64
		if !r.float(&f) {
			return false
		}
		vals = append(vals, f)
		return true
	}) {
		return false
	}
	*dst = append([]float64{}, vals...)
	return true
}

func (r *wireReader) matrix(dst *[][]float64) bool {
	var buf [8][]float64
	rows := buf[:0]
	if !r.array(func() bool {
		var row []float64
		if !r.floats(&row) {
			return false
		}
		rows = append(rows, row)
		return true
	}) {
		return false
	}
	*dst = append([][]float64{}, rows...)
	return true
}

// maxKeys bounds the keys of one typed object; every typed struct has fewer.
const maxKeys = 16

// object reads a JSON object, calling field with each key, the reader
// placed at its value. field reports false for a key it does not know; a
// key seen twice declines here.
func (r *wireReader) object(field func(key []byte) bool) bool {
	if !r.next('{') {
		return false
	}
	if r.next('}') {
		return true
	}
	var seen [maxKeys][]byte
	for n := 0; ; n++ {
		key, ok := r.rawStr()
		if !ok || n == maxKeys {
			return false
		}
		for _, k := range seen[:n] {
			if string(k) == string(key) {
				return false
			}
		}
		seen[n] = key
		if !r.next(':') || !field(key) {
			return false
		}
		if r.next('}') {
			return true
		}
		if !r.next(',') {
			return false
		}
	}
}

func (r *wireReader) deriveSpec(s *DeriveAppSpec) bool {
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return r.str(&s.Name)
		case "plant":
			return r.plant(&s.Plant)
		case "h":
			return r.float(&s.H)
		case "delayTT":
			return r.float(&s.DelayTT)
		case "delayET":
			return r.float(&s.DelayET)
		case "eth":
			return r.float(&s.Eth)
		case "x0":
			return r.floats(&s.X0)
		case "r":
			return r.float(&s.R)
		case "deadline":
			return r.float(&s.Deadline)
		case "frameID":
			return r.int(&s.FrameID)
		case "polesTT":
			return r.floats(&s.PolesTT)
		case "polesET":
			return r.floats(&s.PolesET)
		}
		return false
	})
}

func (r *wireReader) plant(p *PlantSpec) bool {
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return r.str(&p.Name)
		case "a":
			return r.matrix(&p.A)
		case "b":
			return r.matrix(&p.B)
		case "c":
			return r.matrix(&p.C)
		}
		return false
	})
}

// fleet reads a single-fleet allocation request; "fleets" is not among
// its keys, so a batch declines.
func (r *wireReader) fleet(f *FleetRequest) bool {
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return r.str(&f.Name)
		case "policy":
			return r.str(&f.Policy)
		case "method":
			return r.str(&f.Method)
		case "apps":
			apps := []AppSpec{}
			if !r.array(func() bool {
				apps = append(apps, AppSpec{})
				return r.app(&apps[len(apps)-1])
			}) {
				return false
			}
			f.Apps = apps
			return true
		}
		return false
	})
}

func (r *wireReader) app(a *AppSpec) bool {
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return r.str(&a.Name)
		case "r":
			return r.float(&a.R)
		case "deadline":
			return r.float(&a.Deadline)
		case "model":
			return r.model(&a.Model)
		}
		return false
	})
}

func (r *wireReader) model(m *ModelSpec) bool {
	return r.object(func(key []byte) bool {
		switch string(key) {
		case "kind":
			return r.str(&m.Kind)
		case "xiTT":
			return r.float(&m.XiTT)
		case "kp":
			return r.float(&m.Kp)
		case "xiM":
			return r.float(&m.XiM)
		case "xiET":
			return r.float(&m.XiET)
		}
		return false
	})
}

// wireWriter appends the encoding/json form of the typed replies. ok turns
// false at the first value it cannot write byte-identically: a non-finite
// float (encoding/json's unsupported value) or a string that needs
// escaping, HTML escaping of <, > and & included.
type wireWriter struct {
	b  []byte
	ok bool
}

func (w *wireWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *wireWriter) int(n int) { w.b = strconv.AppendInt(w.b, int64(n), 10) }

func (w *wireWriter) bool(v bool) { w.b = strconv.AppendBool(w.b, v) }

func (w *wireWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			w.ok = false
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// float formats f as encoding/json does: 'f' unless 0 < |f| < 1e-6 or
// |f| ≥ 1e21, and a two-digit negative exponent loses its leading zero.
func (w *wireWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.ok = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// appendStreamRow appends json.Marshal's encoding of row to dst, or
// reports false.
func appendStreamRow(dst []byte, row *StreamRow) ([]byte, bool) {
	w := wireWriter{b: dst, ok: true}
	w.raw(`{"index":`)
	w.int(row.Index)
	if res := row.Result; res != nil {
		w.raw(`,"result":{"name":`)
		w.str(res.Name)
		w.raw(`,"xiTT":`)
		w.float(res.XiTT)
		w.raw(`,"xiET":`)
		w.float(res.XiET)
		w.raw(`,"xiM":`)
		w.float(res.XiM)
		w.raw(`,"kp":`)
		w.float(res.Kp)
		w.raw(`,"xiPrimeM":`)
		w.float(res.XiPrimeM)
		w.raw(`,"nonMonotonic":`)
		w.bool(res.NonMonotonic)
		w.raw(`,"model":{"kind":`)
		m := &res.Model
		w.str(m.Kind)
		// omitempty drops a zero float, −0 included (−0 == 0).
		for _, f := range [...]struct {
			key string
			v   float64
		}{{`,"xiTT":`, m.XiTT}, {`,"kp":`, m.Kp}, {`,"xiM":`, m.XiM}, {`,"xiET":`, m.XiET}} {
			if f.v != 0 {
				w.raw(f.key)
				w.float(f.v)
			}
		}
		w.raw(`}}`)
	}
	if row.Error != "" {
		w.raw(`,"error":`)
		w.str(row.Error)
	}
	if row.Cancelled {
		w.raw(`,"cancelled":true`)
	}
	w.raw(`}`)
	return w.b, w.ok
}

// appendFleetReply appends what a json.Encoder indenting by two spaces
// writes for fr, trailing newline included, or reports false.
func appendFleetReply(dst []byte, fr *FleetResult) ([]byte, bool) {
	if fr == nil {
		return dst, false
	}
	w := wireWriter{b: dst, ok: true}
	w.raw("{")
	if fr.Name != "" {
		w.raw("\n  \"name\": ")
		w.str(fr.Name)
		w.raw(",")
	}
	w.raw("\n  \"slots\": ")
	w.int(fr.Slots)
	w.raw(",\n  \"policy\": ")
	w.str(fr.Policy)
	w.raw(",\n  \"method\": ")
	w.str(fr.Method)
	if fr.Unsafe {
		w.raw(",\n  \"unsafeModels\": true")
	}
	if len(fr.Apps) > 0 {
		w.raw(",\n  \"apps\": [")
		for i := range fr.Apps {
			a := &fr.Apps[i]
			if i > 0 {
				w.raw(",")
			}
			w.raw("\n    {\n      \"name\": ")
			w.str(a.Name)
			w.raw(",\n      \"slot\": ")
			w.int(a.Slot)
			w.raw(",\n      \"maxWait\": ")
			w.float(a.MaxWait)
			w.raw(",\n      \"wcrt\": ")
			w.float(a.WCRT)
			w.raw(",\n      \"deadline\": ")
			w.float(a.Deadline)
			w.raw(",\n      \"schedulable\": ")
			w.bool(a.Schedulable)
			w.raw("\n    }")
		}
		w.raw("\n  ]")
	}
	if fr.Error != "" {
		w.raw(",\n  \"error\": ")
		w.str(fr.Error)
	}
	w.raw("\n}\n")
	return w.b, w.ok
}
