package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cpsdyn/internal/core"
)

func TestDecodeLinesCodec(t *testing.T) {
	in := strings.Join([]string{
		`{"name":"a","r":1,"deadline":1,"model":{"kind":"simple","xiTT":0.1,"xiET":0.5}}`,
		"", // blank lines are skipped, not indexed
		`   `,
		`{broken`,
		`{"name":"b","wat":1}`, // unknown fields rejected
		`{"name":"c"}`,
	}, "\n")
	var got []Line[AppSpec]
	for ln := range DecodeLines[AppSpec](strings.NewReader(in), 0) {
		got = append(got, ln)
	}
	if len(got) != 4 {
		t.Fatalf("decoded %d lines, want 4: %+v", len(got), got)
	}
	for i, ln := range got {
		if ln.Index != i {
			t.Errorf("line %d carries index %d", i, ln.Index)
		}
	}
	if got[0].Err != nil || got[0].Val.Name != "a" {
		t.Errorf("line 0 = %+v, want app a", got[0])
	}
	for _, i := range []int{1, 2} {
		if got[i].Err == nil || got[i].Val != nil {
			t.Errorf("line %d = %+v, want an error row", i, got[i])
		}
		var reqErr *RequestError
		if !errors.As(got[i].Err, &reqErr) {
			t.Errorf("line %d error %v is not a *RequestError", i, got[i].Err)
		}
	}
	if got[3].Err != nil || got[3].Val.Name != "c" {
		t.Errorf("line 3 = %+v, want app c (decoding resumes after bad lines)", got[3])
	}
}

// Two JSON values on one line (a lost newline upstream) must be an error
// row, not a silently dropped second value with every later index shifted.
func TestDecodeLinesRejectsTrailingData(t *testing.T) {
	in := `{"name":"a"}{"name":"b"}` + "\n" + `{"name":"c"} garbage` + "\n" + `{"name":"d"}` + "\n"
	var got []Line[AppSpec]
	for ln := range DecodeLines[AppSpec](strings.NewReader(in), 0) {
		got = append(got, ln)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d lines, want 3", len(got))
	}
	for _, i := range []int{0, 1} {
		if got[i].Err == nil || !strings.Contains(got[i].Err.Error(), "unexpected data") {
			t.Errorf("line %d = %+v, want a trailing-data error", i, got[i])
		}
	}
	if got[2].Err != nil || got[2].Val.Name != "d" {
		t.Errorf("line 2 = %+v, want app d", got[2])
	}
}

// A line exceeding the limit cannot be resynchronised: the stream ends with
// a final error row instead of panicking or hanging.
func TestDecodeLinesOverlongLineEndsStream(t *testing.T) {
	in := `{"name":"a"}` + "\n" + `{"name":"` + strings.Repeat("x", 4096) + `"}` + "\n"
	var got []Line[AppSpec]
	for ln := range DecodeLines[AppSpec](strings.NewReader(in), 256) {
		got = append(got, ln)
	}
	if len(got) != 2 || got[0].Err != nil || got[1].Err == nil {
		t.Fatalf("lines = %+v, want one app and one terminal error", got)
	}
}

func TestEncodeResultWritesOneCompactLine(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeResult(&buf, StreamRow{Index: 3, Error: "nope"}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != `{"index":3,"error":"nope"}`+"\n" {
		t.Fatalf("encoded row = %q", got)
	}
}

// streamNDJSON posts body to /v1/derive/stream and decodes every response
// row (strict NDJSON: one JSON object per line, terminated stream).
func streamNDJSON(t *testing.T, url string, body io.Reader) []StreamRow {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status = %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var rows []StreamRow
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		var row StreamRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad response row %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// ndjsonBody renders specs one per line, the /v1/derive/stream request form.
func ndjsonBody(t *testing.T, specs []DeriveAppSpec) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	for _, s := range specs {
		if err := EncodeResult(&buf, s); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

// The golden determinism pin: streamed output, once sorted by input index,
// is identical to the buffered /v1/derive response for the same batch at
// any worker count. (Derivation is deterministic and the wire rows go
// through one marshaller, so this is a byte-level comparison modulo the
// buffered envelope's indentation.)
func TestStreamGoldenMatchesBuffered(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := servoDeriveRequest(6)
	for i := range req.Apps {
		req.Apps[i].R = 8 + float64(i)
		req.Apps[i].Deadline = 3 + float64(i)/2
	}
	code, out := postJSON(t, ts.URL+"/v1/derive", req)
	if code != http.StatusOK {
		t.Fatalf("buffered derive status = %d: %s", code, out)
	}
	var buffered struct {
		Apps []json.RawMessage `json:"apps"`
	}
	if err := json.Unmarshal(out, &buffered); err != nil {
		t.Fatal(err)
	}
	if len(buffered.Apps) != 6 {
		t.Fatalf("buffered returned %d apps", len(buffered.Apps))
	}
	want := make([][]byte, len(buffered.Apps))
	for i, raw := range buffered.Apps {
		var c bytes.Buffer
		if err := json.Compact(&c, raw); err != nil {
			t.Fatal(err)
		}
		want[i] = c.Bytes()
	}
	for _, workers := range []int{1, 3} {
		rows := streamNDJSON(t, fmt.Sprintf("%s/v1/derive/stream?workers=%d", ts.URL, workers),
			ndjsonBody(t, req.Apps))
		if len(rows) != len(want) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(rows), len(want))
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })
		for i, row := range rows {
			if row.Index != i || row.Error != "" || row.Result == nil {
				t.Fatalf("workers=%d: row %d = %+v", workers, i, row)
			}
			got, err := json.Marshal(row.Result)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("workers=%d: row %d differs from buffered:\n stream  %s\n buffered %s",
					workers, i, got, want[i])
			}
		}
	}
}

// Rows come back in input order without sorting — the pipeline reorders
// internally.
func TestStreamEmitsRowsInInputOrder(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := servoDeriveRequest(8)
	rows := streamNDJSON(t, ts.URL+"/v1/derive/stream?workers=4", ndjsonBody(t, req.Apps))
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	for i, row := range rows {
		if row.Index != i {
			t.Fatalf("row %d carries index %d (emission order broken)", i, row.Index)
		}
		if want := fmt.Sprintf("S%d", i+1); row.Result == nil || row.Result.Name != want {
			t.Fatalf("row %d = %+v, want %s", i, row, want)
		}
	}
}

// Malformed and duplicate lines become error rows; the stream carries on
// and later healthy lines still answer.
func TestStreamPerLineErrorsDoNotAbort(t *testing.T) {
	ts := newTestServer(t, Config{})
	specs := servoDeriveRequest(2).Apps
	var buf bytes.Buffer
	_ = EncodeResult(&buf, specs[0])
	buf.WriteString("{broken json\n")
	dup := specs[1]
	dup.Name = specs[0].Name // duplicate of line 0
	_ = EncodeResult(&buf, dup)
	bad := specs[1]
	bad.Name = "invalid"
	bad.H = -1 // decodes, then fails validation (and still claims its name)
	_ = EncodeResult(&buf, bad)
	_ = EncodeResult(&buf, specs[1])

	rows := streamNDJSON(t, ts.URL+"/v1/derive/stream", &buf)
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5: %+v", len(rows), rows)
	}
	if rows[0].Error != "" || rows[0].Result == nil {
		t.Fatalf("row 0 = %+v, want success", rows[0])
	}
	for i, wantSub := range map[int]string{
		1: "parsing request",
		2: "duplicate app name",
		3: "sampling period",
	} {
		if rows[i].Result != nil || !strings.Contains(rows[i].Error, wantSub) {
			t.Errorf("row %d = %+v, want error containing %q", i, rows[i], wantSub)
		}
	}
	if rows[4].Error != "" || rows[4].Result == nil || rows[4].Result.Name != "S2" {
		t.Fatalf("row 4 = %+v, want S2 derived after the bad lines", rows[4])
	}
}

// A row that panics fails alone: the guard around each stream row turns the
// panic into that row's internal error row, every other row is answered,
// and the stream ends normally, with no terminal row.
func TestStreamRecoversRowPanic(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	boom := func(ctx context.Context, spec *DeriveAppSpec, i int, app *core.Application) (DeriveResult, error) {
		if spec.Name == "S3" {
			panic("boom in row")
		}
		return deriveLocal(ctx, spec, i, app)
	}
	ts := httptest.NewServer(s.stream("derive/stream", &s.lat.deriveStream,
		func(ctx context.Context, r io.Reader, w io.Writer, opts StreamOptions) (StreamStats, error) {
			return deriveStream(ctx, r, w, opts, boom)
		}))
	defer ts.Close()
	panics := s.statsz().Panics
	rows := streamNDJSON(t, ts.URL+"?workers=2", ndjsonBody(t, servoDeriveRequest(5).Apps))
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5: %+v", len(rows), rows)
	}
	for i, row := range rows {
		if row.Index != i {
			t.Fatalf("row %d has index %d", i, row.Index)
		}
		if i == 2 {
			if row.Result != nil || row.Cancelled || row.Error != "internal error: boom in row" {
				t.Fatalf("row 2 = %+v, want the internal error row", row)
			}
			continue
		}
		if row.Error != "" || row.Result == nil || row.Result.Name != fmt.Sprintf("S%d", i+1) {
			t.Fatalf("row %d = %+v, want a result", i, row)
		}
	}
	st := s.Stats()
	if st.Streams != 1 || st.StreamCancelled != 0 || st.RowsIn != 5 || st.RowsOut != 5 || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want one clean 5-row stream", st)
	}
	// The row's panic counts once; its error row is a row of a 200
	// response, not an error status.
	if sz := s.statsz(); sz.Panics-panics != 1 || st.ServerErrors != 0 || st.ClientErrors != 0 {
		t.Fatalf("panics +%d, server errors %d, client errors %d; want +1, 0, 0",
			sz.Panics-panics, st.ServerErrors, st.ClientErrors)
	}
}

// Rows of one failing design share its failed computation, yet every error
// row names its own app and no other. Regression: the shared curve handed
// its owner's error, built from the owner's name, to every concurrent row.
func TestStreamSharedFailureNamesEachRow(t *testing.T) {
	ts := newTestServer(t, Config{})
	names := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}
	specs := servoDeriveRequest(len(names)).Apps
	for i := range specs {
		specs[i].Name = names[i]
		specs[i].PolesET = []float64{1.2, 0.88, 0.1} // unstable ET loop
	}
	for round := 0; round < 20; round++ {
		rows := streamNDJSON(t, ts.URL+"/v1/derive/stream?workers=8", ndjsonBody(t, specs))
		if len(rows) != len(names) {
			t.Fatalf("round %d: %d rows, want %d", round, len(rows), len(names))
		}
		for i, row := range rows {
			if row.Result != nil || !strings.Contains(row.Error, "switching: "+names[i]+": ") {
				t.Fatalf("round %d: row %d (%s) = %+v, want an error naming %s", round, i, names[i], row, names[i])
			}
			for _, other := range names {
				if other != names[i] && strings.Contains(row.Error, other) {
					t.Fatalf("round %d: row %d (%s) names app %s: %s", round, i, names[i], other, row.Error)
				}
			}
		}
	}
}

// Regression for the duplicate-name gap: the buffered /v1/derive decoder
// used to accept duplicate app names silently, unlike /v1/allocate.
func TestBufferedDeriveRejectsDuplicateNames(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := servoDeriveRequest(2)
	req.Apps[1].Name = req.Apps[0].Name
	code, out := postJSON(t, ts.URL+"/v1/derive", req)
	if code != http.StatusBadRequest || !strings.Contains(string(out), "duplicate app name") {
		t.Fatalf("status = %d (%s), want 400 duplicate app name", code, out)
	}
}

// Calibrate applies derive's duplicate-name rule: buffered, a second app
// under one name fails the request with a *RequestError (400 on the wire);
// streamed, the later duplicate becomes an error row. An empty request is
// a *RequestError as well. Regression: both calibrate endpoints answered
// two rows under one name, which /v1/allocate then rejects.
func TestCalibrateRejectsDuplicateNames(t *testing.T) {
	probe := CalibrateAppSpec{
		Name:  "a",
		Plant: PlantSpec{A: [][]float64{{0, 1}, {-2, -3}}, B: [][]float64{{0}, {1}}},
		H:     0.02, DelayTT: 0.002, DelayET: 0.02, Eth: 0.1, X0: []float64{0, 2},
		R: 8, Deadline: 3, TargetXiTT: 0.7, TargetXiET: 2.0,
	}
	var reqErr *RequestError
	_, err := Calibrate(context.Background(), &CalibrateRequest{Apps: []CalibrateAppSpec{probe, probe}})
	if !errors.As(err, &reqErr) || err.Error() != `duplicate app name "a"` {
		t.Fatalf("duplicate names returned %v (%T), want a *RequestError naming the duplicate", err, err)
	}
	if _, err := Calibrate(context.Background(), &CalibrateRequest{}); !errors.As(err, &reqErr) {
		t.Fatalf("empty request returned %v (%T), want a *RequestError", err, err)
	}
	ts := newTestServer(t, Config{})
	code, out := postJSON(t, ts.URL+"/v1/calibrate", &CalibrateRequest{Apps: []CalibrateAppSpec{probe, probe}})
	if code != http.StatusBadRequest || !strings.Contains(string(out), "duplicate app name") {
		t.Fatalf("status = %d (%s), want 400 duplicate app name", code, out)
	}

	bad := probe
	bad.TargetXiTT = -1 // decodes, fails validation, and still claims its name
	var in, rows bytes.Buffer
	for _, spec := range []CalibrateAppSpec{bad, probe} {
		if err := EncodeResult(&in, spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := CalibrateStream(context.Background(), &in, &rows, StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	want := `{"index":0,"error":"app \"a\": need 0 \u003c targetXiTT (-1) \u003c targetXiET (2)"}` + "\n" +
		`{"index":1,"error":"duplicate app name \"a\""}` + "\n"
	if rows.String() != want {
		t.Fatalf("stream rows:\n%s\nwant:\n%s", rows.String(), want)
	}
}

// The codec's failures are typed: every malformed payload unwraps to a
// *RequestError, including NaN/Inf smuggled in through the Go API (JSON
// cannot spell them).
func TestCodecErrorsAreTyped(t *testing.T) {
	base := servoDeriveRequest(1).Apps[0]
	mut := []func(*DeriveAppSpec){
		func(s *DeriveAppSpec) { s.Plant.A[0][1] = math.NaN() },
		func(s *DeriveAppSpec) { s.Plant.B[1][0] = math.Inf(1) },
		func(s *DeriveAppSpec) { s.X0[0] = math.Inf(-1) },
		func(s *DeriveAppSpec) { s.H = math.NaN() },
		func(s *DeriveAppSpec) { s.Plant.A = [][]float64{{1, 2}, {3}} },
	}
	for i, m := range mut {
		spec := base
		spec.Plant.A = [][]float64{{0, 1}, {-2, -3}}
		spec.Plant.B = [][]float64{{0}, {1}}
		spec.X0 = []float64{0, 2}
		m(&spec)
		_, err := spec.application(0)
		if err == nil {
			t.Fatalf("case %d: mutation accepted", i)
		}
		var reqErr *RequestError
		if !errors.As(err, &reqErr) {
			t.Fatalf("case %d: error %v is not a *RequestError", i, err)
		}
	}
	var req DeriveRequest
	req.Apps = []DeriveAppSpec{base, base}
	var reqErr *RequestError
	if _, err := req.applications(); !errors.As(err, &reqErr) {
		t.Fatalf("duplicate names returned %v, want a *RequestError", err)
	}
	fr := FleetRequest{Apps: []AppSpec{{Name: "a", R: math.NaN(), Deadline: 1,
		Model: ModelSpec{Kind: "simple", XiTT: 0.1, XiET: 0.5}}}}
	if _, err := fr.spec(); !errors.As(err, &reqErr) {
		t.Fatalf("NaN fleet spec returned %v, want a *RequestError", err)
	}
	cal := CalibrateAppSpec{Name: "a", Plant: base.Plant, H: base.H, DelayTT: base.DelayTT,
		DelayET: base.DelayET, Eth: base.Eth, X0: base.X0, R: base.R, Deadline: base.Deadline,
		TargetXiTT: 0.7, TargetXiET: 2.0, EtOmega: math.NaN()}
	if _, err := cal.application(0); !errors.As(err, &reqErr) {
		t.Fatalf("NaN etOmega returned %v, want a *RequestError", err)
	}
}

// The backpressure acceptance pin: a 1000-app stream must flush its first
// result row while most of the request is still unwritten — the service
// cannot be buffering the batch on either side. The request body is fed
// through a pipe: if the server tried to read it all first, the first
// response row could never arrive (we only write the tail afterwards).
func TestStreamFirstRowBeforeLastRequestRow(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	const total, head = 1000, 8
	specs := servoDeriveRequest(total).Apps

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/derive/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		rows []StreamRow
		err  error
	}
	done := make(chan result, 1)
	firstRow := make(chan StreamRow, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var rows []StreamRow
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
		for sc.Scan() {
			var row StreamRow
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
				done <- result{err: fmt.Errorf("bad row %q: %v", sc.Text(), err)}
				return
			}
			if len(rows) == 0 {
				firstRow <- row
			}
			rows = append(rows, row)
		}
		done <- result{rows: rows, err: sc.Err()}
	}()

	writeSpecs := func(specs []DeriveAppSpec) {
		for i := range specs {
			buf, err := json.Marshal(&specs[i])
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := pw.Write(append(buf, '\n')); err != nil {
				t.Errorf("writing request rows: %v", err)
				return
			}
		}
	}
	writeSpecs(specs[:head])
	select {
	case row := <-firstRow:
		if row.Index != 0 || row.Error != "" {
			t.Fatalf("first row = %+v", row)
		}
	case <-time.After(30 * time.Second):
		pw.CloseWithError(errors.New("gave up"))
		t.Fatal("no result row arrived while 992 request rows were still unwritten: the stream is buffering")
	}
	writeSpecs(specs[head:])
	pw.Close()

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.rows) != total {
		t.Fatalf("%d rows, want %d", len(res.rows), total)
	}
	for i, row := range res.rows {
		if row.Index != i || row.Error != "" {
			t.Fatalf("row %d = %+v", i, row)
		}
	}
	var stats StatszResponse
	if code := getJSON(t, ts.URL+"/statsz", &stats); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	if stats.Server.Streams != 1 || stats.Server.RowsIn != total || stats.Server.RowsOut != total {
		t.Fatalf("stream counters = %+v, want 1 stream, %d in, %d out", stats.Server, total, total)
	}
	if stats.Server.StreamCancelled != 0 || stats.Server.InFlight != 0 {
		t.Fatalf("stream counters = %+v, want no cancellations, drained", stats.Server)
	}
}

// A stream whose compute budget expires dies mid-flight: a terminal
// index −1 row reports the kill in-band, the counters record it, and the
// in-flight slot drains.
func TestStreamBudgetExpiryCancelsMidStream(t *testing.T) {
	ts := newTestServer(t, Config{Timeout: 50 * time.Millisecond})
	glacial := slowDeriveRequest().Apps[0]
	specs := make([]DeriveAppSpec, 64)
	for i := range specs {
		specs[i] = glacial
		specs[i].Name = fmt.Sprintf("G%d", i+1)
	}
	rows := streamNDJSON(t, ts.URL+"/v1/derive/stream", ndjsonBody(t, specs))
	if len(rows) == 0 {
		t.Fatal("no rows at all, want at least the terminal error row")
	}
	last := rows[len(rows)-1]
	if last.Index != -1 || !strings.Contains(last.Error, "compute budget") {
		t.Fatalf("terminal row = %+v, want index -1 budget error", last)
	}
	succeeded := 0
	for _, row := range rows {
		if row.Error == "" {
			succeeded++
		}
	}
	if succeeded == len(specs) {
		t.Fatalf("all %d glacial derivations finished under a 50ms budget", succeeded)
	}
	deadline := time.Now().Add(20 * time.Second)
	var stats StatszResponse
	for {
		if c := getJSON(t, ts.URL+"/statsz", &stats); c != http.StatusOK {
			t.Fatalf("statsz status = %d", c)
		}
		if stats.Server.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream never drained: %+v", stats.Server)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stats.Server.Streams != 1 || stats.Server.StreamCancelled != 1 || stats.Server.TimedOut != 1 {
		t.Fatalf("counters = %+v, want 1 stream / 1 cancelled / 1 timed out", stats.Server)
	}
}

// A budget-killed stream leaves most of its request body unread, and the
// server must not treat that rest as a new request. Before the drain
// window the expired read deadline failed the server's post-handler drain,
// the server kept the connection, parsed the leftover lines as a request
// and wrote a 400 that a client reusing the connection read as the reply
// to its next request. Nothing may follow the stream's response unasked:
// the server keeps the connection for a next request or closes it.
func TestStreamBudgetExpiryLeavesNoStrayResponse(t *testing.T) {
	ts := newTestServer(t, Config{Timeout: 50 * time.Millisecond})
	glacial := slowDeriveRequest().Apps[0]
	specs := make([]DeriveAppSpec, 64)
	for i := range specs {
		specs[i] = glacial
		specs[i].Name = fmt.Sprintf("G%d", i+1)
	}
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/derive/stream", ndjsonBody(t, specs))
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(rows), "compute budget") {
		t.Fatalf("stream = %q (%v), want a budget-killed stream", rows, err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(br)
	var ne net.Error
	if len(rest) > 0 || (err != nil && !(errors.As(err, &ne) && ne.Timeout())) {
		t.Fatalf("after the stream's response the server sent %q (%v), unasked", rest, err)
	}
}

// syncBuffer is a bytes.Buffer the server's connection goroutines may
// log into while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// A budget-killed stream's unread body must be drained while the handler
// runs. Drained after it, by the server, reaching EOF started a background
// read that collided with the read of the connection's next request: the
// server logged "http: panic serving …: invalid concurrent Body.Read call"
// and dropped the connection.
func TestStreamBudgetExpiryDrainDoesNotPanic(t *testing.T) {
	var errLog syncBuffer
	ts := newLoggedTestServer(t, Config{Timeout: 50 * time.Millisecond}, log.New(&errLog, "", 0))
	glacial := slowDeriveRequest().Apps[0]
	specs := make([]DeriveAppSpec, 64)
	for i := range specs {
		specs[i] = glacial
		specs[i].Name = fmt.Sprintf("G%d", i+1)
	}
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	stream, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/derive/stream", ndjsonBody(t, specs))
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, stream)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(rows), "compute budget") {
		t.Fatalf("stream = %q (%v), want a budget-killed stream", rows, err)
	}
	// A second request on the connection: a panicking server closes it
	// after logging, so once this exchange ends the log is complete.
	health, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := health.Write(conn); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.ReadResponse(br, health); err == nil {
		resp.Body.Close()
	}
	if strings.Contains(errLog.String(), "panic serving") {
		t.Fatalf("server log:\n%s", errLog.String())
	}
}

// A client that writes line k only after it has read row k−1 on one
// full-duplex stream gets every row: a row held in the response buffer
// while the server waits for the next line would deadlock it.
func TestStreamPingPong(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	const n = 20
	specs := servoDeriveRequest(n).Apps
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/derive/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(chan StreamRow, n+1)
	end := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			end <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var row StreamRow
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
				end <- fmt.Errorf("bad row %q: %v", sc.Text(), err)
				return
			}
			rows <- row
		}
		end <- sc.Err()
	}()
	for k := range specs {
		line, err := json.Marshal(&specs[k])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pw.Write(append(line, '\n')); err != nil {
			t.Fatalf("writing line %d: %v", k, err)
		}
		select {
		case row := <-rows:
			if row.Index != k || row.Error != "" {
				t.Fatalf("row %+v, want a result for line %d", row, k)
			}
		case err := <-end:
			t.Fatalf("stream ended before row %d: %v", k, err)
		case <-time.After(30 * time.Second):
			t.Fatalf("row %d never arrived after its line was written: the server holds rows back", k)
		}
	}
	pw.Close()
	select {
	case err := <-end:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not end after the request body did")
	}
	if len(rows) != 0 {
		t.Fatalf("%d rows beyond the %d lines", len(rows), n)
	}
}

// The stream counters surface in Prometheus format too.
func TestStreamMetricsExported(t *testing.T) {
	ts := newTestServer(t, Config{})
	rows := streamNDJSON(t, ts.URL+"/v1/derive/stream", ndjsonBody(t, servoDeriveRequest(2).Apps))
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cpsdynd_streams_total 1\n",
		"cpsdynd_stream_rows_in_total 2\n",
		"cpsdynd_stream_rows_out_total 2\n",
		"cpsdynd_stream_cancelled_total 0\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestStreamRejectsBadWorkersParam(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/derive/stream?workers=wat", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// A huge ?workers value is clamped to the server's ceiling, never honoured:
// the stream pool and window are allocated before the first line is read,
// so an unclamped value would let one request allocate gigabytes.
func TestStreamClampsWorkersParam(t *testing.T) {
	ts := newTestServer(t, Config{})
	rows := streamNDJSON(t, ts.URL+"/v1/derive/stream?workers=2000000000",
		ndjsonBody(t, servoDeriveRequest(2).Apps))
	if len(rows) != 2 || rows[0].Error != "" || rows[1].Error != "" {
		t.Fatalf("rows = %+v, want 2 clean rows under the clamped pool", rows)
	}
}

// The app prefix survives names that happen to be substrings of the
// message ("i" is in "finite"); messages already carrying the quoted name
// are not double-prefixed.
func TestRequestErrorPrefix(t *testing.T) {
	err := &RequestError{App: "i", Err: errors.New("field h = NaN is not finite")}
	if got := err.Error(); !strings.HasPrefix(got, `app "i": `) {
		t.Fatalf("error = %q, want the app prefix", got)
	}
	err = &RequestError{App: "C3", Err: errors.New(`duplicate app name "C3"`)}
	if got := err.Error(); strings.Contains(got, "app ") && strings.Count(got, `"C3"`) != 1 {
		t.Fatalf("error = %q, want no double prefix", got)
	}
}

// A spec with several non-finite fields always reports the first in
// declaration order. Regression: the fields were checked by ranging over a
// map, so the reported field changed from call to call.
func TestNonFiniteFieldReportIsDeterministic(t *testing.T) {
	spec := servoDeriveRequest(1).Apps[0]
	spec.H, spec.Eth = math.NaN(), math.Inf(1)
	fleet := FleetRequest{Apps: []AppSpec{{Name: "C1", R: math.NaN(), Deadline: 2,
		Model: ModelSpec{Kind: "non-monotonic", XiTT: 0.4, Kp: 0.7, XiM: math.Inf(-1), XiET: 4}}}}
	derive, alloc := map[string]bool{}, map[string]bool{}
	for i := 0; i < 100; i++ {
		if _, err := spec.application(0); err != nil {
			derive[err.Error()] = true
		}
		if _, err := fleet.spec(); err != nil {
			alloc[err.Error()] = true
		}
	}
	for what, got := range map[string]map[string]bool{"derive": derive, "allocate": alloc} {
		if len(got) != 1 {
			t.Errorf("%s: %d distinct messages over 100 calls, want 1: %v", what, len(got), got)
		}
	}
	if !derive[`app "S1": field h = NaN is not finite`] {
		t.Errorf("derive reported %v, want field h", derive)
	}
	if !alloc[`app "C1": field r = NaN is not finite`] {
		t.Errorf("allocate reported %v, want field r", alloc)
	}
}

// AllocateStream shares the codec: fleet lines in, ordered result rows out,
// malformed lines as error rows, infeasible fleets in-band.
func TestAllocateStream(t *testing.T) {
	var buf bytes.Buffer
	compact := func(s string) string {
		var c bytes.Buffer
		if err := json.Compact(&c, []byte(s)); err != nil {
			t.Fatal(err)
		}
		return c.String()
	}
	buf.WriteString(compact(tableIJSON) + "\n")
	buf.WriteString("{nope\n")
	buf.WriteString(`{"name":"doomed","apps":[{"name":"a","r":10,"deadline":0.1,"model":{"kind":"non-monotonic","xiTT":1,"kp":2,"xiM":3,"xiET":5}}]}` + "\n")

	var out bytes.Buffer
	stats, err := AllocateStream(context.Background(), &buf, &out, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsIn != 3 || stats.RowsOut != 3 {
		t.Fatalf("stats = %+v, want 3 in / 3 out", stats)
	}
	var rows []FleetStreamRow
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var row FleetStreamRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad row %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	if rows[0].Index != 0 || rows[0].Fleet == nil || rows[0].Fleet.Slots != 3 || rows[0].Fleet.Error != "" {
		t.Fatalf("row 0 = %+v, want the paper's 3 slots", rows[0])
	}
	if rows[1].Index != 1 || rows[1].Error == "" {
		t.Fatalf("row 1 = %+v, want a decode error row", rows[1])
	}
	if rows[2].Index != 2 || rows[2].Fleet == nil || rows[2].Fleet.Error == "" {
		t.Fatalf("row 2 = %+v, want an in-band infeasible-fleet error", rows[2])
	}
}
