package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoReplica mimics a cpsdynd replica's streaming endpoint: one request
// line in, one row out ({"index":k,"result":{"echo":<line>}}), flushed per
// row, in input order — the protocol the peer transport depends on.
func echoReplica(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(echoHandler(nil))
	t.Cleanup(ts.Close)
	return ts
}

// echoHandler is echoReplica's handler; a non-nil ended receives how the
// request body ended (nil for a clean EOF) before the response ends.
func echoHandler(ended chan<- error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		_ = rc.EnableFullDuplex()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		sc := bufio.NewScanner(r.Body)
		i := 0
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			fmt.Fprintf(w, `{"index":%d,"result":{"echo":%s}}`+"\n", i, line)
			_ = rc.Flush()
			i++
		}
		if ended != nil {
			ended <- sc.Err()
		}
	}
}

// A normal Close half-closes the sub-stream: the replica reads a clean EOF
// and ends its stream before Close returns, and that end of the response
// is not charged to the peer.
func TestSessionCloseEndsSubStreamCleanly(t *testing.T) {
	ended := make(chan error, 1)
	ts := httptest.NewServer(echoHandler(ended))
	t.Cleanup(ts.Close)
	g := testGateway(t, Config{Peers: []string{ts.URL}, Timeout: 30 * time.Second})
	sess := g.Session(context.Background(), 2)
	if _, ok := sess.Do(context.Background(), "k", []byte(`{}`), nil); !ok {
		t.Fatal("row fell back against a healthy peer")
	}
	sess.Close()
	select {
	case err := <-ended:
		if err != nil {
			t.Fatalf("replica's request body ended with %v, want a clean EOF", err)
		}
	default:
		t.Fatal("Close returned before the replica ended its stream")
	}
	if st := g.Stats().Peers[0]; st.Failures != 0 || st.Down {
		t.Fatalf("peer stats = %+v; a clean close was charged against the peer", st)
	}
}

func testGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Rows round-trip through a persistent sub-stream and come back matched to
// their waiters even when sent concurrently.
func TestSessionRoundTripsRows(t *testing.T) {
	ts := echoReplica(t)
	g := testGateway(t, Config{Peers: []string{ts.URL}})
	sess := g.Session(context.Background(), 16)
	defer sess.Close()

	var wg sync.WaitGroup
	rows := make([][]byte, 16)
	for i := range rows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			line := fmt.Sprintf(`{"name":"app-%d"}`, i)
			row, ok := sess.Do(context.Background(), fmt.Sprintf("key-%d", i), []byte(line), nil)
			if !ok {
				t.Errorf("row %d fell back against a healthy peer", i)
				return
			}
			rows[i] = row
		}(i)
	}
	wg.Wait()
	for i, raw := range rows {
		if raw == nil {
			continue
		}
		var row struct {
			Index  int `json:"index"`
			Result struct {
				Echo json.RawMessage `json:"echo"`
			} `json:"result"`
		}
		if err := json.Unmarshal(raw, &row); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if want := fmt.Sprintf(`{"name":"app-%d"}`, i); string(row.Result.Echo) != want {
			t.Fatalf("row %d echoed %s, want %s (FIFO misalignment)", i, row.Result.Echo, want)
		}
	}
	st := g.Stats()
	if st.PeerRows != 16 || st.PeerFallbacks != 0 {
		t.Fatalf("stats = %+v, want 16 peer rows, no fallbacks", st)
	}
}

// A dead peer produces fallbacks, trips its breaker after the threshold, and
// leaves the healthy peer untouched.
func TestSessionFallsBackAndBreaksDeadPeer(t *testing.T) {
	ts := echoReplica(t)
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close() // the port now refuses connections

	g := testGateway(t, Config{
		Peers:         []string{ts.URL, deadURL},
		Timeout:       2 * time.Second,
		FailThreshold: 2,
		Cooldown:      time.Minute,
	})
	sess := g.Session(context.Background(), 4)
	defer sess.Close()

	// Find keys for each owner.
	var deadKey, liveKey string
	for i := 0; deadKey == "" || liveKey == ""; i++ {
		k := fmt.Sprintf("key-%d", i)
		if g.ring.Owner(k) == deadURL {
			deadKey = k
		} else {
			liveKey = k
		}
	}
	for i := 0; i < 4; i++ {
		if _, ok := sess.Do(context.Background(), deadKey, []byte(`{}`), nil); ok {
			t.Fatalf("attempt %d against the dead peer reported ok", i)
		}
	}
	if _, ok := sess.Do(context.Background(), liveKey, []byte(`{}`), nil); !ok {
		t.Fatal("healthy peer's rows fell back")
	}
	st := g.Stats()
	if st.PeerFallbacks != 4 || st.PeerRows != 1 {
		t.Fatalf("stats = %+v, want 4 fallbacks and 1 peer row", st)
	}
	for _, p := range st.Peers {
		switch p.Name {
		case deadURL:
			if !p.Down || p.Failures < 2 {
				t.Fatalf("dead peer stats = %+v, want open breaker", p)
			}
		case ts.URL:
			if p.Down || p.Failures != 0 {
				t.Fatalf("live peer stats = %+v, want closed breaker", p)
			}
		}
	}
}

// Killing the replica mid-session fails the in-flight sub-stream; later rows
// reopen, fail fast and fall back without hanging.
func TestSessionSurvivesMidStreamPeerDeath(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		_ = rc.EnableFullDuplex()
		w.WriteHeader(http.StatusOK)
		sc := bufio.NewScanner(r.Body)
		i := 0
		for sc.Scan() {
			fmt.Fprintf(w, `{"index":%d,"result":{}}`+"\n", i)
			_ = rc.Flush()
			i++
		}
	})
	lis := httptest.NewServer(handler)
	g := testGateway(t, Config{Peers: []string{lis.URL}, Timeout: 2 * time.Second})
	sess := g.Session(context.Background(), 4)
	defer sess.Close()

	if _, ok := sess.Do(context.Background(), "k", []byte(`{}`), nil); !ok {
		t.Fatal("first row failed against a live peer")
	}
	lis.CloseClientConnections()
	lis.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := sess.Do(context.Background(), "k", []byte(`{}`), nil); !ok {
			break // the death was observed: fallback engaged
		}
		if time.Now().After(deadline) {
			t.Fatal("peer death never surfaced as a fallback")
		}
	}
	if st := g.Stats(); st.PeerFallbacks == 0 {
		t.Fatalf("stats = %+v, want fallbacks after the kill", st)
	}
}

// A peer speaking the wrong protocol — rows with neither result nor error,
// e.g. a non-cpsdynd process on the peer port — is a stream-level breach:
// the waiter falls back instead of accepting garbage, and the failure is
// charged so the breaker can eventually isolate the peer.
func TestSessionRejectsProtocolBreachRows(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		_ = rc.EnableFullDuplex()
		w.WriteHeader(http.StatusOK)
		sc := bufio.NewScanner(r.Body)
		i := 0
		for sc.Scan() {
			fmt.Fprintf(w, `{"index":%d,"echo":"not the replica protocol"}`+"\n", i)
			_ = rc.Flush()
			i++
		}
	}))
	t.Cleanup(ts.Close)
	g := testGateway(t, Config{Peers: []string{ts.URL}, Timeout: 2 * time.Second})
	sess := g.Session(context.Background(), 4)
	defer sess.Close()

	if _, ok := sess.Do(context.Background(), "k", []byte(`{}`), nil); ok {
		t.Fatal("a row without result or error was accepted")
	}
	st := g.Stats()
	if st.PeerRows != 0 || st.PeerFallbacks != 1 {
		t.Fatalf("stats = %+v, want 0 peer rows and 1 fallback", st)
	}
	if st.Peers[0].Failures == 0 {
		t.Fatal("the breach was not charged against the peer")
	}
}

// Tearing a stream down because the caller's context died must not judge
// the peer: routine client disconnects would otherwise open breakers
// against perfectly healthy replicas.
func TestSessionCallerCancellationDoesNotChargePeer(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		<-release // hold the response so the dial stays in flight
	}))
	t.Cleanup(func() {
		close(release)
		ts.Close()
	})
	g := testGateway(t, Config{Peers: []string{ts.URL}, Timeout: 30 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	sess := g.Session(ctx, 2)

	rowCtx, rowCancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer rowCancel()
	if _, ok := sess.Do(rowCtx, "k", []byte(`{}`), nil); ok {
		t.Fatal("row succeeded against a peer that never answers")
	}
	cancel() // the request is over; the sub-stream dies of the caller's ctx
	// Give the dial goroutine a beat to observe the cancellation.
	time.Sleep(200 * time.Millisecond)
	if st := g.Stats(); st.Peers[0].Failures != 0 || st.Peers[0].Down {
		t.Fatalf("peer stats = %+v; caller cancellation was charged against the peer", st.Peers[0])
	}
	sess.Close()
}

// A row the caller's accept hook rejects settles as a peer failure, not a
// success — and because the rejection is judged inside the exchange (never
// a success-then-undo), consecutive rejections accumulate and open the
// breaker like any other consecutive peer failure.
func TestSessionRejectedRowsOpenBreaker(t *testing.T) {
	ts := echoReplica(t)
	g := testGateway(t, Config{
		Peers:         []string{ts.URL},
		FailThreshold: 3,
		Cooldown:      time.Minute,
	})
	sess := g.Session(context.Background(), 4)
	defer sess.Close()

	rejectAll := func([]byte) bool { return false }
	for i := 0; i < 5; i++ {
		if _, ok := sess.Do(context.Background(), "k", []byte(`{}`), rejectAll); ok {
			t.Fatalf("attempt %d: a rejected row reported ok", i)
		}
	}
	st := g.Stats()
	if st.PeerRows != 0 || st.PeerFallbacks != 5 {
		t.Fatalf("stats = %+v, want every rejected row counted as a fallback", st)
	}
	// Attempts 4 and 5 must have been stopped by the open breaker, so only
	// the first three rejections reached the peer.
	if !st.Peers[0].Down || st.Peers[0].Failures != 3 {
		t.Fatalf("peer stats = %+v, want an open breaker after 3 rejections", st.Peers[0])
	}
}
