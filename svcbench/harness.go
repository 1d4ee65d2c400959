package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"cpsdyn/internal/core"
	"cpsdyn/internal/obs"
	"cpsdyn/internal/service"
	"cpsdyn/internal/store"
)

// env is one running service: the real cpsdynd handler (service.New) behind
// an in-process httptest server, the derivation cache emptied and an empty
// persistent store attached through core.SetDeriveStore (the CI replica-1
// configuration), and the single client connection every request of the
// benchmark travels on.
type env struct {
	srv    *httptest.Server
	store  *store.Store
	dir    string
	client *http.Client
	keys   *keyRecorder // traced runs: records every key written to the store
	rec    *recorder    // traced runs: spans around the page fetches
}

// openEnv starts a fresh service over an empty cache and an empty store in a
// new directory under tmp; a non-nil rec makes it a traced run's service.
func openEnv(tmp string, rec *recorder) (*env, error) {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, fmt.Errorf("store directory: %w", err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &env{store: st, dir: dir, rec: rec}
	core.ResetDeriveCache()
	if rec != nil {
		e.keys = &keyRecorder{Store: st}
		core.SetDeriveStore(e.keys)
	} else {
		core.SetDeriveStore(st)
	}
	svc, err := service.New(service.Config{Store: st})
	if err != nil {
		e.close()
		return nil, err
	}
	e.srv = httptest.NewServer(svc)
	e.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   150 * time.Second,
	}
	var health map[string]string
	if err := e.get("/healthz", &health); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the server and its client connection, detaches and closes
// the store (draining its write-behind queue) and removes its directory.
func (e *env) close() {
	if e.srv != nil {
		e.client.CloseIdleConnections()
		e.srv.Close()
	}
	core.SetDeriveStore(nil)
	e.store.Close()
	os.RemoveAll(e.dir)
}

// post sends one request on the client connection and reads the whole
// reply. A non-empty span ID rides in the trace header, so the server's
// span for the request names the client span as its parent.
func (e *env) post(path string, body []byte, span string) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodPost, e.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if span != "" {
		req.Header.Set(obs.TraceHeader, span)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return reply, resp.StatusCode, err
}

// get fetches one JSON page (healthz, statsz, tracez) into v.
func (e *env) get(path string, v any) error {
	sp := e.rec.begin("GET "+path, "")
	defer e.rec.end(sp)
	resp, err := e.client.Get(e.srv.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// keyRecorder is the store as the derivation cache sees it in traced runs:
// it passes every call through and remembers the keys written, so the
// traced run can time store.Get on exactly the records the workload wrote.
type keyRecorder struct {
	*store.Store
	mu   sync.Mutex
	keys []string
}

func (k *keyRecorder) Put(key string, v any) {
	k.mu.Lock()
	k.keys = append(k.keys, key)
	k.mu.Unlock()
	k.Store.Put(key, v)
}

func (k *keyRecorder) written() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]string(nil), k.keys...)
}

// ndjson encodes one value per line.
func ndjson[T any](vs []T) []byte {
	var buf bytes.Buffer
	for i := range vs {
		line, err := json.Marshal(&vs[i])
		if err != nil {
			panic(err) // the fixtures are plain data; this is a bug
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// streamRow is the envelope every NDJSON result row shares.
type streamRow struct {
	Index  int             `json:"index"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// parseRows splits a stream reply into rows and counts the failed ones:
// error rows, a terminal index -1 row, lines that do not parse, and rows
// missing or out of input order.
func parseRows(reply []byte, want int) (rows []streamRow, failed int) {
	for _, line := range bytes.Split(bytes.TrimSpace(reply), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var r streamRow
		if err := json.Unmarshal(line, &r); err != nil || r.Index == -1 {
			failed++
			continue
		}
		if r.Error != "" || r.Index != len(rows) || r.Result == nil {
			failed++
		}
		rows = append(rows, r)
	}
	if len(rows) != want {
		failed += max(want-len(rows), len(rows)-want)
	}
	return rows, failed
}
