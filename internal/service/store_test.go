package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"cpsdyn/internal/core"
	"cpsdyn/internal/store"
)

// storeFixture pairs a test server's URL with its store handle.
type storeFixture struct {
	URL   string
	store *store.Store
}

// newStoreServer boots a test server with a persistent derivation store in
// dir, wired both into the cache (read-through/write-behind) and into the
// server config (statsz/metrics).
func newStoreServer(t *testing.T, dir string) *storeFixture {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Store: st})
	// After newTestServer: its cleanup must run last, ours (detach + close)
	// first, so late requests never reach a closed store.
	core.SetDeriveStore(st)
	t.Cleanup(func() {
		core.SetDeriveStore(nil)
		st.Close()
	})
	return &storeFixture{URL: ts.URL, store: st}
}

// The warm-rejoin property over the wire: a server restarted onto the same
// cache dir answers the same fleet from disk — /statsz shows disk hits and
// store loads, the miss counter stays at zero, and the derived rows are
// byte-identical to the cold run's.
func TestServerWarmRejoinFromStore(t *testing.T) {
	dir := t.TempDir()

	cold := newStoreServer(t, dir)
	code, coldBody := postJSON(t, cold.URL+"/v1/derive", servoDeriveRequest(3))
	if code != http.StatusOK {
		t.Fatalf("cold derive status = %d", code)
	}
	var coldStats StatszResponse
	if code := getJSON(t, cold.URL+"/statsz", &coldStats); code != http.StatusOK {
		t.Fatalf("cold statsz status = %d", code)
	}
	if coldStats.Store == nil {
		t.Fatal("store block missing from /statsz on a store-enabled server")
	}
	if coldStats.Cache.Misses == 0 {
		t.Fatal("cold run served without computing — fixture broken")
	}
	cold.store.Flush()
	if s := cold.store.Stats(); s.Stores == 0 || s.Records == 0 || s.Bytes == 0 {
		t.Fatalf("cold run persisted nothing: %+v", s)
	}
	core.SetDeriveStore(nil)
	cold.store.Close()

	// The restart: fresh process state, same directory.
	warm := newStoreServer(t, dir)
	code, warmBody := postJSON(t, warm.URL+"/v1/derive", servoDeriveRequest(3))
	if code != http.StatusOK {
		t.Fatalf("warm derive status = %d", code)
	}
	// The response embeds the live cache counters, which legitimately differ
	// between the runs (misses vs disk hits) — the derived rows must not.
	var coldResp, warmResp struct {
		Apps json.RawMessage `json:"apps"`
	}
	if err := json.Unmarshal(coldBody, &coldResp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(warmBody, &warmResp); err != nil {
		t.Fatal(err)
	}
	if string(warmResp.Apps) != string(coldResp.Apps) {
		t.Fatal("warm rejoin answered different derivation bytes than the cold run")
	}
	var warmStats StatszResponse
	if code := getJSON(t, warm.URL+"/statsz", &warmStats); code != http.StatusOK {
		t.Fatalf("warm statsz status = %d", code)
	}
	if warmStats.Cache.Misses != 0 {
		t.Fatalf("warm rejoin recomputed: %d misses, want 0", warmStats.Cache.Misses)
	}
	if warmStats.Cache.DiskHits == 0 {
		t.Fatal("warm rejoin shows no disk hits")
	}
	if warmStats.Store == nil || warmStats.Store.Loads == 0 {
		t.Fatalf("warm rejoin store stats = %+v, want loads > 0", warmStats.Store)
	}
	if warmStats.Store.LoadErrors != 0 {
		t.Fatalf("warm rejoin hit %d load errors", warmStats.Store.LoadErrors)
	}
}

// The store-only series must really be absent on a plain server rather
// than served as zeros, matching the omitempty store statsz block.
func TestPlainServerServesNoStoreSeries(t *testing.T) {
	ts := newTestServer(t, Config{})
	for name := range metricFamilies(scrapeMetrics(t, ts.URL)) {
		if strings.HasPrefix(name, "cpsdynd_store") {
			t.Errorf("plain server serves store series %q", name)
		}
	}
	var stats StatszResponse
	if code := getJSON(t, ts.URL+"/statsz", &stats); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	if stats.Store != nil {
		t.Fatal("plain server serves a store statsz block")
	}
}
