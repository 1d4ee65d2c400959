package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// shardedDeriveRequest builds n servo apps whose pole targets differ
// slightly, so every app carries a distinct canonical cache key and the
// consistent-hash ring actually spreads them across replicas.
func shardedDeriveRequest(n int) *DeriveRequest {
	req := servoDeriveRequest(n)
	for i := range req.Apps {
		req.Apps[i].PolesTT = []float64{0.78 + 0.002*float64(i%50), 0.70, 0.05}
		req.Apps[i].R = 8 + float64(i%5)
	}
	return req
}

// newGatewayCluster boots n single-node replicas plus a gateway sharding
// across them. All servers share the process-wide derivation cache (they
// live in one test process), which is irrelevant to what these tests pin:
// the routing, re-indexing and fallback plumbing.
func newGatewayCluster(t *testing.T, n int, cfg Config) (*httptest.Server, []*httptest.Server) {
	t.Helper()
	replicas := make([]*httptest.Server, n)
	peers := make([]string, n)
	for i := range replicas {
		replicas[i] = newTestServer(t, Config{})
		peers[i] = replicas[i].URL
	}
	cfg.Peers = peers
	return newTestServer(t, cfg), replicas
}

// gatewayStats fetches the /statsz gateway block.
func gatewayStats(t *testing.T, url string) *StatszResponse {
	t.Helper()
	var st StatszResponse
	if code := getJSON(t, url+"/statsz", &st); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	return &st
}

// The acceptance pin: gateway output — buffered and streamed, rows sorted
// by index — is byte-identical to a single node's /v1/derive for any peer
// count. The single-node server derives first, the gateway batch runs
// against it cold or warm alike (derivation is deterministic), and every
// row must match byte for byte.
func TestGatewayGoldenMatchesSingleNode(t *testing.T) {
	req := shardedDeriveRequest(10)
	single := newTestServer(t, Config{})
	code, out := postJSON(t, single.URL+"/v1/derive", req)
	if code != http.StatusOK {
		t.Fatalf("single-node derive status = %d: %s", code, out)
	}
	var reference struct {
		Apps []json.RawMessage `json:"apps"`
	}
	if err := json.Unmarshal(out, &reference); err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(reference.Apps))
	for i, raw := range reference.Apps {
		var c bytes.Buffer
		if err := json.Compact(&c, raw); err != nil {
			t.Fatal(err)
		}
		want[i] = c.Bytes()
	}
	for _, peerCount := range []int{1, 2, 3} {
		gw, _ := newGatewayCluster(t, peerCount, Config{})

		// Buffered /v1/derive through the gateway.
		code, out := postJSON(t, gw.URL+"/v1/derive", req)
		if code != http.StatusOK {
			t.Fatalf("peers=%d: gateway derive status = %d: %s", peerCount, code, out)
		}
		var got struct {
			Apps []json.RawMessage `json:"apps"`
		}
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Apps) != len(want) {
			t.Fatalf("peers=%d: buffered returned %d apps, want %d", peerCount, len(got.Apps), len(want))
		}
		for i, raw := range got.Apps {
			var c bytes.Buffer
			if err := json.Compact(&c, raw); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(c.Bytes(), want[i]) {
				t.Fatalf("peers=%d: buffered row %d differs:\n gateway %s\n single  %s",
					peerCount, i, c.Bytes(), want[i])
			}
		}

		// Streamed /v1/derive/stream through the gateway.
		rows := streamNDJSON(t, gw.URL+"/v1/derive/stream?workers=3", ndjsonBody(t, req.Apps))
		if len(rows) != len(want) {
			t.Fatalf("peers=%d: %d stream rows, want %d", peerCount, len(rows), len(want))
		}
		for i, row := range rows {
			if row.Index != i || row.Error != "" || row.Result == nil {
				t.Fatalf("peers=%d: stream row %d = %+v", peerCount, i, row)
			}
			raw, err := json.Marshal(row.Result)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, want[i]) {
				t.Fatalf("peers=%d: stream row %d differs:\n gateway %s\n single  %s",
					peerCount, i, raw, want[i])
			}
		}

		// Healthy peers answered everything: 10 buffered + 10 streamed rows
		// went remote, none fell back.
		st := gatewayStats(t, gw.URL)
		if st.Gateway == nil {
			t.Fatalf("peers=%d: statsz has no gateway block", peerCount)
		}
		if st.Gateway.PeerRows != 2*uint64(len(want)) || st.Gateway.PeerFallbacks != 0 {
			t.Fatalf("peers=%d: gateway stats = %+v, want %d peer rows and no fallbacks",
				peerCount, st.Gateway, 2*len(want))
		}
		var rowSum uint64
		for _, p := range st.Gateway.Peers {
			rowSum += p.Rows
		}
		if rowSum != st.Gateway.PeerRows {
			t.Fatalf("peers=%d: per-peer rows sum to %d, total says %d",
				peerCount, rowSum, st.Gateway.PeerRows)
		}
	}
}

// Error semantics survive the fan-out: malformed lines and invalid specs
// become error rows at the gateway (they never travel), duplicate names are
// rejected by the gateway's own seen-set, and a buffered request with a bad
// app fails with the same 400 a single node answers.
func TestGatewayKeepsSingleNodeErrorContract(t *testing.T) {
	gw, _ := newGatewayCluster(t, 2, Config{})
	req := shardedDeriveRequest(3)

	var buf bytes.Buffer
	if err := EncodeResult(&buf, req.Apps[0]); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("{nonsense\n")
	dup := req.Apps[0] // same name again → duplicate
	if err := EncodeResult(&buf, dup); err != nil {
		t.Fatal(err)
	}
	bad := req.Apps[2]
	bad.Plant.A = [][]float64{{0, 1}, {-2}} // ragged matrix → validation error row
	if err := EncodeResult(&buf, bad); err != nil {
		t.Fatal(err)
	}
	rows := streamNDJSON(t, gw.URL+"/v1/derive/stream", &buf)
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	if rows[0].Error != "" || rows[0].Result == nil {
		t.Fatalf("row 0 = %+v, want a result", rows[0])
	}
	if rows[1].Error == "" || !strings.Contains(rows[1].Error, "parsing request") {
		t.Fatalf("row 1 = %+v, want a parse error row", rows[1])
	}
	if rows[2].Error == "" || !strings.Contains(rows[2].Error, "duplicate app name") {
		t.Fatalf("row 2 = %+v, want a duplicate-name error row", rows[2])
	}
	if rows[3].Error == "" {
		t.Fatalf("row 3 = %+v, want a validation error row", rows[3])
	}

	breq := servoDeriveRequest(2)
	breq.Apps[1].Name = breq.Apps[0].Name
	if code, out := postJSON(t, gw.URL+"/v1/derive", breq); code != http.StatusBadRequest {
		t.Fatalf("duplicate-name batch status = %d (%s), want 400", code, out)
	}
}

// Killing a replica mid-stream must not drop or duplicate a row: the rows it
// owned fall back to local derivation, the stream runs to completion, and
// the fallback is visible in the gateway counters. The request body rides a
// pipe so the kill happens while the stream is demonstrably in flight —
// after the first response row, before the last request line is written.
func TestGatewayStreamSurvivesMidStreamPeerKill(t *testing.T) {
	req := shardedDeriveRequest(24)
	gw, replicas := newGatewayCluster(t, 2, Config{PeerTimeout: 2 * time.Second})

	pr, pw := io.Pipe()
	firstRow := make(chan struct{})
	writeErr := make(chan error, 1)
	go func() {
		defer pw.Close()
		head, tail := req.Apps[:4], req.Apps[4:]
		var buf bytes.Buffer
		for _, spec := range head {
			if err := EncodeResult(&buf, spec); err != nil {
				writeErr <- err
				return
			}
		}
		if _, err := pw.Write(buf.Bytes()); err != nil {
			writeErr <- err
			return
		}
		<-firstRow
		// The stream is live: kill one replica while 20 request lines are
		// still unwritten. Rows bound for it must fall back, not vanish.
		replicas[0].CloseClientConnections()
		replicas[0].Close()
		buf.Reset()
		for _, spec := range tail {
			if err := EncodeResult(&buf, spec); err != nil {
				writeErr <- err
				return
			}
		}
		if _, err := pw.Write(buf.Bytes()); err != nil {
			writeErr <- err
			return
		}
		writeErr <- nil
	}()

	resp, err := http.Post(gw.URL+"/v1/derive/stream?workers=2", "application/x-ndjson", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status = %d: %s", resp.StatusCode, b)
	}
	seen := make(map[int]bool)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	rows := 0
	for sc.Scan() {
		var row StreamRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad row %q: %v", sc.Text(), err)
		}
		if rows == 0 {
			close(firstRow)
		}
		rows++
		if row.Index < 0 {
			t.Fatalf("stream was killed: %+v", row)
		}
		if seen[row.Index] {
			t.Fatalf("row %d delivered twice", row.Index)
		}
		seen[row.Index] = true
		if row.Error != "" || row.Result == nil {
			t.Fatalf("row %d = %+v, want a result despite the kill", row.Index, row)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("writing request lines: %v", err)
	}
	if rows != len(req.Apps) {
		t.Fatalf("%d rows, want %d (none dropped)", rows, len(req.Apps))
	}
	for i := range req.Apps {
		if !seen[i] {
			t.Fatalf("row %d missing", i)
		}
	}
	st := gatewayStats(t, gw.URL)
	if st.Gateway == nil || st.Gateway.PeerFallbacks == 0 {
		t.Fatalf("gateway stats = %+v, want fallbacks after the kill", st.Gateway)
	}
	if st.Gateway.PeerRows+st.Gateway.PeerFallbacks < uint64(len(req.Apps)) {
		t.Fatalf("peerRows (%d) + peerFallbacks (%d) < %d rows",
			st.Gateway.PeerRows, st.Gateway.PeerFallbacks, len(req.Apps))
	}
}

// A replica whose own stream is dying (its compute budget expired, say)
// emits cancellation-shaped error rows before tearing down. Those are the
// replica's infrastructure trouble, not the app's failure — a single node
// would have answered the app, so the gateway must derive it locally.
func TestGatewayAnswersLocallyOnPeerCancellationRows(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		_ = rc.EnableFullDuplex()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
		i := 0
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			fmt.Fprintf(w, `{"index":%d,"error":"derive: context deadline exceeded","cancelled":true}`+"\n", i)
			_ = rc.Flush()
			i++
		}
	}))
	t.Cleanup(fake.Close)
	gw := newTestServer(t, Config{Peers: []string{fake.URL}})
	code, out := postJSON(t, gw.URL+"/v1/derive", servoDeriveRequest(1))
	if code != http.StatusOK {
		t.Fatalf("derive status = %d: %s (the peer's cancellation leaked to the client)", code, out)
	}
	var resp DeriveResponse
	if err := json.Unmarshal(out, &resp); err != nil || len(resp.Apps) != 1 || resp.Apps[0].Name != "S1" {
		t.Fatalf("response = %s (%v), want the app answered locally", out, err)
	}
	if st := gatewayStats(t, gw.URL); st.Gateway == nil || st.Gateway.PeerFallbacks == 0 {
		t.Fatalf("gateway stats = %+v, want the row in the fallback books", st.Gateway)
	}
}

// A huge client workers value must not size the gateway's per-peer
// buffers: the workers rule caps it at the server's ceiling and the session
// bound is the app count below that, so this request allocates a few
// cells, not gigabytes.
func TestGatewayClampsClientWorkers(t *testing.T) {
	gw, _ := newGatewayCluster(t, 1, Config{})
	req := servoDeriveRequest(1)
	req.Workers = 1 << 30
	code, out := postJSON(t, gw.URL+"/v1/derive", req)
	if code != http.StatusOK {
		t.Fatalf("derive status = %d: %s", code, out)
	}
	var resp DeriveResponse
	if err := json.Unmarshal(out, &resp); err != nil || len(resp.Apps) != 1 {
		t.Fatalf("response = %s (%v)", out, err)
	}
}

// A peer list that (mis)includes the gateway's own address must not
// recurse: the hop header makes the self-forwarded sub-request serve
// single-node, so the stream completes with every row answered.
func TestGatewaySelfPeerDoesNotRecurse(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Peers: []string{l.Addr().String()}, PeerTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s)
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	t.Cleanup(ts.Close)

	rows := streamNDJSON(t, ts.URL+"/v1/derive/stream", ndjsonBody(t, servoDeriveRequest(2).Apps))
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for i, row := range rows {
		if row.Index != i || row.Error != "" || row.Result == nil {
			t.Fatalf("row %d = %+v, want a result", i, row)
		}
	}
}

// A misconfigured peer set must fail at construction, not at first request.
func TestGatewayRejectsBadPeerConfig(t *testing.T) {
	for _, peers := range [][]string{
		{"h1:8700", "h1:8700"}, // duplicate
		{"://nohost"},          // unparsable
		{""},                   // empty identity
	} {
		if _, err := New(Config{Peers: peers}); err == nil {
			t.Errorf("New accepted peer set %q", peers)
		}
	}
}

// A healthy gateway stream ends its sub-streams cleanly: each replica reads
// a clean EOF, so none books a cancelled stream or computation, every row
// it read was answered, and together the replicas wrote exactly the rows
// the gateway counts as answered by peers.
func TestGatewayEndsSubStreamsCleanly(t *testing.T) {
	// A peer timeout far above the run time: no row may fall back.
	gw, replicas := newGatewayCluster(t, 2, Config{PeerTimeout: 5 * time.Minute})
	req := shardedDeriveRequest(6)
	resp, err := http.Post(gw.URL+"/v1/derive/stream", "application/x-ndjson", ndjsonBody(t, req.Apps))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway stream status = %d", resp.StatusCode)
	}
	g := gatewayStats(t, gw.URL).Gateway
	if g.PeerRows != uint64(len(req.Apps)) || g.PeerFallbacks != 0 {
		t.Fatalf("gateway peerRows = %d, peerFallbacks = %d; want %d, 0", g.PeerRows, g.PeerFallbacks, len(req.Apps))
	}
	var rowsOut uint64
	for i, r := range replicas {
		st := gatewayStats(t, r.URL).Server
		if st.StreamCancelled != 0 || st.Cancelled != 0 || st.RowsIn != st.RowsOut {
			t.Errorf("replica %d: streamCancelled = %d, cancelled = %d, rowsIn = %d, rowsOut = %d; want 0, 0 and rowsIn == rowsOut",
				i, st.StreamCancelled, st.Cancelled, st.RowsIn, st.RowsOut)
		}
		rowsOut += st.RowsOut
	}
	if rowsOut != g.PeerRows {
		t.Errorf("replicas wrote %d rows, gateway counts %d peer rows", rowsOut, g.PeerRows)
	}
}

// Gateway metrics ride /metrics next to the single-node counters.
func TestGatewayMetricsExported(t *testing.T) {
	gw, _ := newGatewayCluster(t, 2, Config{})
	code, out := postJSON(t, gw.URL+"/v1/derive", shardedDeriveRequest(2))
	if code != http.StatusOK {
		t.Fatalf("derive status = %d: %s", code, out)
	}
	resp, err := http.Get(gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cpsdynd_peers 2",
		"cpsdynd_peers_down 0",
		"cpsdynd_peer_rows_total 2",
		"cpsdynd_peer_fallbacks_total 0",
		"cpsdynd_workers ",
		"cpsdynd_stream_window ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// /statsz reports the effective workers and stream window (defaults
// resolved; the window is twice the workers), so a gateway can introspect
// a replica's capacity without parsing its flags.
func TestStatszReportsEffectiveStreamConfig(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 3})
	st := gatewayStats(t, ts.URL)
	if st.Server.Workers != 3 || st.Server.StreamWindow != 6 {
		t.Fatalf("configured server stats = %+v, want workers 3 / window 6", st.Server)
	}
	def := newTestServer(t, Config{})
	st = gatewayStats(t, def.URL)
	if st.Server.Workers <= 0 || st.Server.StreamWindow != 2*st.Server.Workers {
		t.Fatalf("default server stats = %+v, want resolved defaults", st.Server)
	}
	if st.Gateway != nil {
		t.Fatalf("single node reports a gateway block: %+v", st.Gateway)
	}
}

// The /v1/allocate/stream route drives the AllocateStream engine with the
// same framing and counters as /v1/derive/stream.
func TestAllocateStreamRoute(t *testing.T) {
	ts := newTestServer(t, Config{})
	var buf bytes.Buffer
	var c bytes.Buffer
	if err := json.Compact(&c, []byte(tableIJSON)); err != nil {
		t.Fatal(err)
	}
	buf.Write(append(c.Bytes(), '\n'))
	buf.WriteString("{nope\n")

	resp, err := http.Post(ts.URL+"/v1/allocate/stream", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("allocate stream status = %d", resp.StatusCode)
	}
	var rows []FleetStreamRow
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row FleetStreamRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad row %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if rows[0].Index != 0 || rows[0].Fleet == nil || rows[0].Fleet.Slots != 3 {
		t.Fatalf("row 0 = %+v, want the paper's 3 slots", rows[0])
	}
	if rows[1].Index != 1 || rows[1].Error == "" {
		t.Fatalf("row 1 = %+v, want an error row", rows[1])
	}
	st := gatewayStats(t, ts.URL)
	if st.Server.Streams != 1 || st.Server.RowsIn != 2 || st.Server.RowsOut != 2 {
		t.Fatalf("stream counters = %+v, want 1 stream / 2 in / 2 out", st.Server)
	}
}

// The /v1/calibrate/stream route runs the measured-mode workflow per line.
func TestCalibrateStreamRoute(t *testing.T) {
	ts := newTestServer(t, Config{})
	servo := servoDeriveRequest(1).Apps[0]
	spec := CalibrateAppSpec{
		Name:       "servo",
		Plant:      servo.Plant,
		H:          servo.H,
		DelayTT:    servo.DelayTT,
		DelayET:    servo.DelayET,
		Eth:        servo.Eth,
		X0:         servo.X0,
		R:          servo.R,
		Deadline:   servo.Deadline,
		TargetXiTT: 0.68,
		TargetXiET: 2.16,
	}
	var buf bytes.Buffer
	if err := EncodeResult(&buf, spec); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"name":"bad","targetXiTT":-1}` + "\n")

	resp, err := http.Post(ts.URL+"/v1/calibrate/stream", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("calibrate stream status = %d", resp.StatusCode)
	}
	var rows []CalibrateStreamRow
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		var row CalibrateStreamRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad row %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if rows[0].Index != 0 || rows[0].Error != "" || rows[0].Result == nil ||
		len(rows[0].Result.PolesTT) == 0 || len(rows[0].Result.PolesET) == 0 {
		t.Fatalf("row 0 = %+v, want calibrated poles", rows[0])
	}
	if got := rows[0].Result; math.Abs(got.XiTT-0.68) > 0.2 {
		t.Fatalf("calibrated ξTT = %.3f, want ≈ 0.68", got.XiTT)
	}
	if rows[1].Index != 1 || rows[1].Error == "" ||
		!strings.Contains(rows[1].Error, "targetXiTT") {
		t.Fatalf("row 1 = %+v, want a target-validation error row", rows[1])
	}
}
