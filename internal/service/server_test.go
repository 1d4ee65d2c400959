package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cpsdyn/internal/core"
	"cpsdyn/internal/plants"
)

// newTestServer resets the shared derivation cache (restoring the default
// capacity afterwards) and serves a fresh handler over httptest.
func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	return newLoggedTestServer(t, cfg, nil)
}

// newLoggedTestServer is newTestServer with errorLog as the http.Server's
// error log (nil selects the log package's standard logger).
func newLoggedTestServer(t *testing.T, cfg Config, errorLog *log.Logger) *httptest.Server {
	t.Helper()
	core.ResetDeriveCache()
	core.SetDeriveCacheCapacity(128, 0)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s)
	ts.Config.ErrorLog = errorLog
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		core.ResetDeriveCache()
		core.SetDeriveCacheCapacity(128, 0)
	})
	return ts
}

// servoDeriveRequest builds a /v1/derive body of n servo apps with
// identical dynamics (distinct names), the core-test fleet in wire form.
func servoDeriveRequest(n int) *DeriveRequest {
	servo := plants.Servo()
	a := make([][]float64, servo.A.Rows())
	b := make([][]float64, servo.B.Rows())
	for i := range a {
		a[i] = make([]float64, servo.A.Cols())
		for j := range a[i] {
			a[i][j] = servo.A.At(i, j)
		}
	}
	for i := range b {
		b[i] = []float64{servo.B.At(i, 0)}
	}
	req := &DeriveRequest{}
	for i := 0; i < n; i++ {
		req.Apps = append(req.Apps, DeriveAppSpec{
			Name:     fmt.Sprintf("S%d", i+1),
			Plant:    PlantSpec{Name: "servo", A: a, B: b},
			H:        0.020,
			DelayTT:  0.002,
			DelayET:  0.020,
			Eth:      0.1,
			X0:       []float64{0, 2.0},
			R:        8,
			Deadline: 3,
			PolesTT:  []float64{0.80, 0.70, 0.05},
			PolesET:  []float64{0.93, 0.88, 0.10},
		})
	}
	return req
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	var body map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if body["status"] != "ok" {
		t.Fatalf("healthz body = %v", body)
	}
}

// The acceptance test of the service: the derivation cache survives across
// requests. The second of two identical derive requests reports non-zero
// cache hits, and /statsz exposes the same counters.
func TestDeriveKeepsCacheWarmAcrossRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := servoDeriveRequest(2)

	code, out := postJSON(t, ts.URL+"/v1/derive", req)
	if code != http.StatusOK {
		t.Fatalf("first derive status = %d: %s", code, out)
	}
	var first DeriveResponse
	if err := json.Unmarshal(out, &first); err != nil {
		t.Fatal(err)
	}
	if len(first.Apps) != 2 {
		t.Fatalf("first derive returned %d apps, want 2", len(first.Apps))
	}
	// The twin app reuses the first app's derivation bundle even within
	// one request: one lookup, one hit.
	if first.Cache.Misses != 3 || first.Cache.Hits != 1 {
		t.Fatalf("first request cache = %+v, want 3 misses and 1 hit", first.Cache)
	}
	if first.Apps[0].XiTT <= 0 || first.Apps[0].XiET <= first.Apps[0].XiTT {
		t.Fatalf("implausible timing row: %+v", first.Apps[0])
	}
	if first.Apps[0].Model.Kind != "non-monotonic" {
		t.Fatalf("model kind = %q", first.Apps[0].Model.Kind)
	}

	code, out = postJSON(t, ts.URL+"/v1/derive", req)
	if code != http.StatusOK {
		t.Fatalf("second derive status = %d: %s", code, out)
	}
	var second DeriveResponse
	if err := json.Unmarshal(out, &second); err != nil {
		t.Fatal(err)
	}
	// Same fleet again: zero new misses, every intermediate served warm.
	if second.Cache.Misses != first.Cache.Misses {
		t.Fatalf("second request recomputed: %+v (first %+v)", second.Cache, first.Cache)
	}
	if second.Cache.Hits != first.Cache.Hits+2 {
		t.Fatalf("second request hits = %d, want %d (one bundle hit per app)",
			second.Cache.Hits, first.Cache.Hits+2)
	}
	if !cmpRows(first.Apps, second.Apps) {
		t.Fatal("warm-cache derive returned different rows")
	}

	var stats StatszResponse
	if code := getJSON(t, ts.URL+"/statsz", &stats); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	if stats.Cache.Hits != second.Cache.Hits || stats.Cache.Misses != second.Cache.Misses {
		t.Fatalf("statsz cache = %+v, derive reported %+v", stats.Cache, second.Cache)
	}
	if stats.Server.Requests != 2 || stats.Server.InFlight != 0 {
		t.Fatalf("server stats = %+v, want 2 completed requests, none in flight", stats.Server)
	}
}

func cmpRows(a, b []DeriveResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// With the cache squeezed below the fleet's working set, the eviction
// counter must climb and surface through both the derive response and
// /statsz.
func TestDeriveReportsEvictions(t *testing.T) {
	ts := newTestServer(t, Config{})
	core.SetDeriveCacheCapacity(2, 0) // fleet needs 3 artefacts
	req := servoDeriveRequest(1)
	for i := 0; i < 2; i++ {
		if code, out := postJSON(t, ts.URL+"/v1/derive", req); code != http.StatusOK {
			t.Fatalf("derive %d status = %d: %s", i, code, out)
		}
	}
	var stats StatszResponse
	if code := getJSON(t, ts.URL+"/statsz", &stats); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	if stats.Cache.Evictions == 0 {
		t.Fatalf("stats = %+v, want non-zero evictions with capacity 2", stats.Cache)
	}
	if stats.Cache.Entries > 2 {
		t.Fatalf("entries = %d exceeds capacity 2", stats.Cache.Entries)
	}
}

const tableIJSON = `{
  "policy": "first-fit",
  "method": "closed-form",
  "apps": [
    {"name":"C1","r":200,"deadline":9.5,
     "model":{"kind":"non-monotonic","xiTT":1.68,"kp":2.27,"xiM":5.30,"xiET":11.62}},
    {"name":"C2","r":20,"deadline":6.25,
     "model":{"kind":"non-monotonic","xiTT":2.58,"kp":1.34,"xiM":2.95,"xiET":8.59}},
    {"name":"C3","r":15,"deadline":2,
     "model":{"kind":"non-monotonic","xiTT":0.39,"kp":0.69,"xiM":0.64,"xiET":3.97}},
    {"name":"C4","r":200,"deadline":7.5,
     "model":{"kind":"non-monotonic","xiTT":2.50,"kp":1.92,"xiM":4.03,"xiET":10.40}},
    {"name":"C5","r":20,"deadline":8.5,
     "model":{"kind":"non-monotonic","xiTT":2.75,"kp":1.97,"xiM":4.58,"xiET":10.63}},
    {"name":"C6","r":6,"deadline":6,
     "model":{"kind":"non-monotonic","xiTT":0.71,"kp":0.67,"xiM":0.92,"xiET":7.94}}
  ]
}`

func TestAllocateSingleFleet(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/allocate", "application/json", strings.NewReader(tableIJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("allocate status = %d", resp.StatusCode)
	}
	var out FleetResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Slots != 3 || out.Error != "" {
		t.Fatalf("allocate result = %+v, want the paper's 3 slots", out)
	}
	// Input-order output (the slotalloc ordering fix applies here too).
	for i, a := range out.Apps {
		if want := fmt.Sprintf("C%d", i+1); a.Name != want {
			t.Fatalf("app %d = %q, want %q (input order)", i, a.Name, want)
		}
	}
}

func TestAllocateBatchFleets(t *testing.T) {
	ts := newTestServer(t, Config{})
	conservative := strings.ReplaceAll(tableIJSON, `"kind":"non-monotonic"`, `"kind":"conservative"`)
	raced := strings.ReplaceAll(tableIJSON, `"policy": "first-fit"`, `"policy": "race"`)
	// ξTT = 3 exceeds the 2 s deadline: infeasible even on a slot of its
	// own, which must not sink the other fleets of the batch.
	doomed := `{"name":"doomed","apps":[{"name":"doomed","r":10,"deadline":2,` +
		`"model":{"kind":"non-monotonic","xiTT":3,"kp":3.5,"xiM":4,"xiET":8}}]}`
	body := fmt.Sprintf(`{"fleets":[%s,%s,%s,%s]}`,
		strings.Replace(tableIJSON, "{", `{"name":"nonmono",`, 1),
		strings.Replace(conservative, "{", `{"name":"cons",`, 1),
		strings.Replace(raced, "{", `{"name":"raced",`, 1),
		doomed)
	resp, err := http.Post(ts.URL+"/v1/allocate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch allocate status = %d", resp.StatusCode)
	}
	var out AllocateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Fleets) != 4 {
		t.Fatalf("batch returned %d fleets, want 4", len(out.Fleets))
	}
	for i, want := range []struct {
		name  string
		slots int
	}{{"nonmono", 3}, {"cons", 5}, {"raced", 3}} {
		fr := out.Fleets[i]
		if fr.Name != want.name || fr.Slots != want.slots || fr.Error != "" {
			t.Fatalf("fleet %d = %+v, want %s with %d slots", i, fr, want.name, want.slots)
		}
	}
	if fr := out.Fleets[3]; fr.Name != "doomed" || fr.Slots != 0 || len(fr.Apps) != 0 ||
		!strings.Contains(fr.Error, `"doomed"`) {
		t.Fatalf("fleet 3 = %+v, want an in-band error naming the doomed app", fr)
	}
}

func TestEndpointErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"derive bad json", "/v1/derive", `{`, http.StatusBadRequest},
		{"derive no apps", "/v1/derive", `{"apps":[]}`, http.StatusBadRequest},
		{"derive unknown field", "/v1/derive", `{"wat":1}`, http.StatusBadRequest},
		{"derive ragged matrix", "/v1/derive",
			`{"apps":[{"name":"a","plant":{"a":[[1,2],[3]],"b":[[1],[1]]},"h":0.02,"delayTT":0.002,"delayET":0.02,"eth":0.1,"x0":[0,2],"r":8,"deadline":3}]}`,
			http.StatusBadRequest},
		{"derive invalid app", "/v1/derive",
			`{"apps":[{"name":"a","plant":{"a":[[0,1],[1,0]],"b":[[0],[1]]},"h":0,"delayTT":0.002,"delayET":0.02,"eth":0.1,"x0":[0,2],"r":8,"deadline":3}]}`,
			http.StatusBadRequest},
		{"allocate bad json", "/v1/allocate", `{`, http.StatusBadRequest},
		{"allocate bad policy", "/v1/allocate", `{"policy":"magic","apps":[{"name":"a","r":1,"deadline":1,"model":{"kind":"simple","xiTT":0.1,"xiET":0.5}}]}`, http.StatusBadRequest},
		{"allocate mixed forms", "/v1/allocate", `{"apps":[{"name":"a","r":1,"deadline":1,"model":{"kind":"simple","xiTT":0.1,"xiET":0.5}}],"fleets":[{"apps":[]}]}`, http.StatusBadRequest},
		{"allocate top-level policy with fleets", "/v1/allocate", `{"policy":"race","fleets":[{"apps":[{"name":"a","r":1,"deadline":1,"model":{"kind":"simple","xiTT":0.1,"xiET":0.5}}]}]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var body errorBody
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.want)
		}
		if err != nil || body.Error == "" {
			t.Errorf("%s: error body = %+v, %v", c.name, body, err)
		}
	}
	// An infeasible fleet is an analysis outcome, not a client error: 200
	// with the error in-band.
	code, out := postJSON(t, ts.URL+"/v1/allocate", AllocateRequest{
		Fleets: []FleetRequest{
			{Name: "doomed", Apps: []AppSpec{{Name: "a", R: 10, Deadline: 0.1,
				Model: ModelSpec{Kind: "non-monotonic", XiTT: 1, Kp: 2, XiM: 3, XiET: 5}}}},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("infeasible batch status = %d: %s", code, out)
	}
	var batch AllocateResponse
	if err := json.Unmarshal(out, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Fleets) != 1 || batch.Fleets[0].Error == "" {
		t.Fatalf("infeasible fleet result = %+v, want in-band error", batch.Fleets)
	}
}

// /metrics exports the /statsz counters in Prometheus text format.
func TestMetricsPrometheusFormat(t *testing.T) {
	ts := newTestServer(t, Config{})
	if code, out := postJSON(t, ts.URL+"/v1/derive", servoDeriveRequest(1)); code != http.StatusOK {
		t.Fatalf("derive status = %d: %s", code, out)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE cpsdynd_cache_hits_total counter",
		"# TYPE cpsdynd_cache_misses_total counter",
		"# TYPE cpsdynd_in_flight gauge",
		"# TYPE cpsdynd_sim_steps_total counter",
		"cpsdynd_requests_total 1\n",
		"cpsdynd_cache_misses_total 3\n", // the cold servo derive
		"cpsdynd_cancelled_total 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// /v1/calibrate owns the measured-mode workflow: targets in, calibrated
// poles plus a derive row out, feasible as an allocate request.
func TestCalibrateEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	servo := servoDeriveRequest(1).Apps[0]
	req := &CalibrateRequest{Apps: []CalibrateAppSpec{{
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
	}}}
	code, out := postJSON(t, ts.URL+"/v1/calibrate", req)
	if code != http.StatusOK {
		t.Fatalf("calibrate status = %d: %s", code, out)
	}
	var resp CalibrateResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Apps) != 1 {
		t.Fatalf("calibrate returned %d apps, want 1", len(resp.Apps))
	}
	got := resp.Apps[0]
	if len(got.PolesTT) == 0 || len(got.PolesET) == 0 {
		t.Fatalf("missing calibrated poles: %+v", got)
	}
	// The calibration tolerance is one sampling period or 5%, whichever is
	// looser; the reported response times must approach the targets.
	if math.Abs(got.XiTT-0.68) > 0.2 || math.Abs(got.XiET-2.16) > 0.25 {
		t.Fatalf("calibrated (ξTT=%.3f, ξET=%.3f), want ≈ (0.68, 2.16)", got.XiTT, got.XiET)
	}
	if got.Model.Kind != "non-monotonic" {
		t.Fatalf("model kind = %q", got.Model.Kind)
	}
}

func TestCalibrateEndpointErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, c := range []struct{ name, body string }{
		{"no apps", `{"apps":[]}`},
		{"bad json", `{`},
		{"unknown field", `{"wat":1}`},
		{"trailing data", `{"apps":[]} trailing`},
		{"bad targets", `{"apps":[{"name":"a","plant":{"a":[[0,1],[-2,-3]],"b":[[0],[1]]},"h":0.02,"delayTT":0.002,"delayET":0.02,"eth":0.1,"x0":[0,2],"r":8,"deadline":3,"targetXiTT":2.0,"targetXiET":1.0}]}`},
	} {
		resp, err := http.Post(ts.URL+"/v1/calibrate", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, resp.StatusCode)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/derive")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/derive status = %d, want 405", resp.StatusCode)
	}
}

// Concurrent identical requests across both endpoints must be race-clean
// (run under -race) and all succeed, with the in-flight gauge back at zero.
func TestConcurrentRequests(t *testing.T) {
	ts := newTestServer(t, Config{MaxInFlight: 4})
	req := servoDeriveRequest(2)
	deriveBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 12
	var wg sync.WaitGroup
	errs := make(chan error, 2*clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/derive", "application/json", bytes.NewReader(deriveBody))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("derive status %d: %s", resp.StatusCode, b)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/allocate", "application/json", strings.NewReader(tableIJSON))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("allocate status %d: %s", resp.StatusCode, b)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var stats StatszResponse
	if code := getJSON(t, ts.URL+"/statsz", &stats); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	if stats.Server.InFlight != 0 {
		t.Fatalf("in-flight gauge = %d after drain, want 0", stats.Server.InFlight)
	}
	if stats.Server.Requests != 2*clients {
		t.Fatalf("requests = %d, want %d", stats.Server.Requests, 2*clients)
	}
	// Identical dynamics everywhere: exactly one cold derivation.
	if stats.Cache.Misses != 3 {
		t.Fatalf("misses = %d, want 3 (single-flight across concurrent requests)", stats.Cache.Misses)
	}
}

// A body one byte over the 8 MiB limit is refused before it is decoded;
// one at the limit is read (and then refused as JSON).
func TestOversizedBodyIs413(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, c := range []struct {
		size int
		code int
		msg  string
	}{
		{maxBodyBytes + 1, http.StatusRequestEntityTooLarge, "request body exceeds the 8388608-byte limit"},
		{maxBodyBytes, http.StatusBadRequest, "parsing request: unexpected EOF"},
	} {
		body := bytes.Repeat([]byte(" "), c.size)
		body[0] = '{'
		resp, err := http.Post(ts.URL+"/v1/allocate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorBody
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != c.code || !strings.Contains(e.Error, c.msg) {
			t.Fatalf("%d-byte body: status %d, error %q (%v); want %d containing %q",
				c.size, resp.StatusCode, e.Error, err, c.code, c.msg)
		}
	}
}

// A panicking computation must fail its own request with a 500, not kill
// the daemon.
func TestComputeRecoversPanic(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	panics := s.statsz().Panics
	h := s.compute("panic", &s.lat.derive, func(context.Context, *Server, []byte) (any, error) { panic("boom") })
	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest(http.MethodPost, "/x", strings.NewReader(`{}`)))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	var body errorBody
	if err := json.NewDecoder(rr.Body).Decode(&body); err != nil || !strings.Contains(body.Error, "boom") {
		t.Fatalf("error body = %+v, %v", body, err)
	}
	if st := s.Stats(); st.InFlight != 0 || st.Requests != 1 {
		t.Fatalf("stats after panic = %+v, want drained", st)
	}
	if st := s.statsz(); st.Panics-panics != 1 || st.Server.ServerErrors != 1 || st.Server.ClientErrors != 0 {
		t.Fatalf("panics +%d, server errors %d, client errors %d; want +1, 1, 0",
			st.Panics-panics, st.Server.ServerErrors, st.Server.ClientErrors)
	}
}

// An item that panics inside a buffered request's fan-out fails that
// request with a 500, not the process: the guard around each item turns the
// panic into an internal error, the slot is released, and the same server
// answers the next request.
func TestComputeRecoversItemPanic(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	boom := func(ctx context.Context, spec *DeriveAppSpec, i int, app *core.Application) (DeriveResult, error) {
		if spec.Name == "S2" {
			panic("boom in item")
		}
		return deriveLocal(ctx, spec, i, app)
	}
	h := s.compute("derive", &s.lat.derive, func(ctx context.Context, _ *Server, body []byte) (any, error) {
		var req DeriveRequest
		if err := decodeStrict(body, &req); err != nil {
			return nil, err
		}
		apps, err := req.applications()
		if err != nil {
			return nil, err
		}
		return deriveApps(ctx, &req, apps, 2, boom)
	})
	post := func(req *DeriveRequest) *httptest.ResponseRecorder {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		h(rr, httptest.NewRequest(http.MethodPost, "/v1/derive", bytes.NewReader(body)))
		return rr
	}
	panics := s.statsz().Panics
	rr := post(servoDeriveRequest(3))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d (%s), want 500", rr.Code, rr.Body)
	}
	// The item's guard recovers the panic; the request's guard around it
	// sees an error, so the panic counts once.
	if st := s.statsz(); st.Panics-panics != 1 || st.Server.ServerErrors != 1 {
		t.Fatalf("panics +%d, server errors %d; want +1, 1", st.Panics-panics, st.Server.ServerErrors)
	}
	var body errorBody
	if err := json.NewDecoder(rr.Body).Decode(&body); err != nil || body.Error != "internal error: boom in item" {
		t.Fatalf("error body = %+v, %v", body, err)
	}
	if st := s.Stats(); st.InFlight != 0 || st.Requests != 1 {
		t.Fatalf("stats after the panic = %+v, want drained", st)
	}
	if rr := post(servoDeriveRequest(1)); rr.Code != http.StatusOK {
		t.Fatalf("next request status = %d (%s), want 200", rr.Code, rr.Body)
	}
	if st := s.Stats(); st.InFlight != 0 || st.Requests != 2 {
		t.Fatalf("stats after the next request = %+v", st)
	}
	if st := s.statsz(); st.Panics-panics != 1 || st.Server.ServerErrors != 1 || st.Server.ClientErrors != 0 {
		t.Fatalf("after the next request: panics +%d, server errors %d, client errors %d; want +1, 1, 0",
			st.Panics-panics, st.Server.ServerErrors, st.Server.ClientErrors)
	}
}

// Every error status a handler writes counts once, by class: a client
// error, a budget overrun and a stream refused before its 200 each move
// their own counter, and a success moves neither.
func TestErrorStatusesCountedByClass(t *testing.T) {
	s, err := New(Config{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	h := s.compute("status", &s.lat.derive, func(ctx context.Context, _ *Server, body []byte) (any, error) {
		switch string(body) {
		case "bad":
			return nil, errors.New("bad request")
		case "slow":
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return map[string]string{"status": "ok"}, nil
	})
	stream := s.stream("derive/stream", &s.lat.deriveStream, DeriveStream)
	for _, c := range []struct {
		body, query    string
		code           int
		client, server uint64
	}{
		{"ok", "", http.StatusOK, 0, 0},
		{"bad", "", http.StatusBadRequest, 1, 0},
		{"slow", "", http.StatusGatewayTimeout, 1, 1},
		{"", "?workers=x", http.StatusBadRequest, 2, 1},
	} {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/x"+c.query, strings.NewReader(c.body))
		if c.query != "" {
			stream(rr, req)
		} else {
			h(rr, req)
		}
		st := s.Stats()
		if rr.Code != c.code || st.ClientErrors != c.client || st.ServerErrors != c.server {
			t.Fatalf("%q%s: status %d, client errors %d, server errors %d; want %d, %d, %d",
				c.body, c.query, rr.Code, st.ClientErrors, st.ServerErrors, c.code, c.client, c.server)
		}
	}
	// The mux's own answers, an unknown path and a wrong method, count as
	// client errors too; their statuses, bodies and Allow header are the
	// mux's.
	for _, c := range []struct {
		method, path string
		code         int
		client       uint64
		allow, body  string
	}{
		{http.MethodPost, "/v1/nope", http.StatusNotFound, 3, "", "404 page not found\n"},
		{http.MethodGet, "/v1/derive", http.StatusMethodNotAllowed, 4, "POST", "Method Not Allowed\n"},
	} {
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest(c.method, c.path, nil))
		st := s.Stats()
		if rr.Code != c.code || rr.Header().Get("Allow") != c.allow || rr.Body.String() != c.body ||
			st.ClientErrors != c.client || st.ServerErrors != 1 {
			t.Fatalf("%s %s: status %d, Allow %q, body %q, client errors %d, server errors %d; want %d, %q, %q, %d, 1",
				c.method, c.path, rr.Code, rr.Header().Get("Allow"), rr.Body, st.ClientErrors, st.ServerErrors,
				c.code, c.allow, c.body, c.client)
		}
	}
}

// One rule resolves a client's worker request in both framings, the
// buffered workers field and a stream's ?workers=: the operator's -workers
// is a ceiling (GOMAXPROCS without one), a request within it is honoured
// and anything else runs at the ceiling.
func TestWorkersRule(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ ceiling, requested, want int }{
		{2, 1000, 2}, {2, 1, 1}, {2, 0, 2},
		{0, procs + 1, procs}, {0, 1 << 30, procs}, {0, 1, 1}, {0, 0, procs},
	} {
		s, err := New(Config{Workers: tc.ceiling})
		if err != nil {
			t.Fatal(err)
		}
		// Buffered: the workers field as the endpoints decode and resolve it.
		var req DeriveRequest
		if err := decodeStrict(fmt.Appendf(nil, `{"workers":%d,"apps":[]}`, tc.requested), &req); err != nil {
			t.Fatal(err)
		}
		if got := s.workers(req.Workers); got != tc.want {
			t.Errorf("ceiling %d, buffered workers %d: resolved %d, want %d", tc.ceiling, tc.requested, got, tc.want)
		}
		// Streamed: the pool the handler hands its engine.
		got := -1
		h := s.stream("derive/stream", &s.lat.deriveStream,
			func(_ context.Context, _ io.Reader, _ io.Writer, opts StreamOptions) (StreamStats, error) {
				got = opts.Workers
				return StreamStats{}, nil
			})
		rr := httptest.NewRecorder()
		h(rr, httptest.NewRequest(http.MethodPost, fmt.Sprintf("/x?workers=%d", tc.requested), strings.NewReader("")))
		if rr.Code != http.StatusOK || got != tc.want {
			t.Errorf("ceiling %d, ?workers=%d: status %d, pool %d, want 200 and %d", tc.ceiling, tc.requested, rr.Code, got, tc.want)
		}
	}
}

// slowDeriveRequest builds a single-app derive whose ET and TT designs
// both settle glacially (poles just inside the unit circle), so the curve
// sampling runs long enough for cancellation races to be deterministic:
// the slow ET loop gives over 13 000 kwaits, and the slow TT loop makes
// each kwait's walk thousands of steps long even when it stops early at
// its certificate.
func slowDeriveRequest() *DeriveRequest {
	req := servoDeriveRequest(1)
	req.Apps[0].Name = "glacial"
	req.Apps[0].PolesTT = []float64{0.999, 0.998, 0.05}
	req.Apps[0].PolesET = []float64{0.9995, 0.999, 0.10}
	return req
}

// The acceptance test of cancellation-by-default: a request whose budget
// expires answers 504 AND stops consuming CPU — observed via the
// process-wide simulation-step counter, which must stop climbing once the
// in-flight gauge drains.
func TestBudgetExpiryStopsCompute(t *testing.T) {
	ts := newTestServer(t, Config{Timeout: 30 * time.Millisecond})
	code, out := postJSON(t, ts.URL+"/v1/derive", slowDeriveRequest())
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", code, out)
	}
	deadline := time.Now().Add(20 * time.Second)
	var stats StatszResponse
	for {
		if c := getJSON(t, ts.URL+"/statsz", &stats); c != http.StatusOK {
			t.Fatalf("statsz status = %d", c)
		}
		if stats.Server.InFlight == 0 && stats.Server.Cancelled >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("computation not cancelled: %+v", stats.Server)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// With the computation cancelled and nothing else in flight, the
	// compute-step counter must be flat.
	steps := stats.SimSteps
	time.Sleep(150 * time.Millisecond)
	if c := getJSON(t, ts.URL+"/statsz", &stats); c != http.StatusOK {
		t.Fatalf("statsz status = %d", c)
	}
	if stats.SimSteps != steps {
		t.Fatalf("sim steps still climbing after cancellation: %d → %d", steps, stats.SimSteps)
	}
	if stats.Server.TimedOut == 0 {
		t.Fatalf("timedOut = 0, want ≥ 1: %+v", stats.Server)
	}
}

// A disconnected client cancels its computation just like a budget expiry.
func TestClientDisconnectStopsCompute(t *testing.T) {
	ts := newTestServer(t, Config{})
	body, err := json.Marshal(slowDeriveRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/derive", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Give the request a moment to start computing, then walk away.
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want context.Canceled", err)
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
			t.Fatalf("computation still in flight after disconnect: %+v", stats.Server)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The computation may have finished before the disconnect on a fast
	// machine; when it did not, it must be counted as cancelled and the
	// step counter must be flat.
	steps := stats.SimSteps
	time.Sleep(150 * time.Millisecond)
	if c := getJSON(t, ts.URL+"/statsz", &stats); c != http.StatusOK {
		t.Fatalf("statsz status = %d", c)
	}
	if stats.SimSteps != steps {
		t.Fatalf("sim steps still climbing after disconnect: %d → %d", steps, stats.SimSteps)
	}
}

// A request that exceeds its compute budget answers 504, is counted, and
// does not leak its semaphore slot.
func TestRequestTimeout(t *testing.T) {
	ts := newTestServer(t, Config{Timeout: 1 * time.Nanosecond})
	code, out := postJSON(t, ts.URL+"/v1/derive", servoDeriveRequest(1))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", code, out)
	}
	// The background computation still finishes and releases its slot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var stats StatszResponse
		if c := getJSON(t, ts.URL+"/statsz", &stats); c != http.StatusOK {
			t.Fatalf("statsz status = %d", c)
		}
		if stats.Server.InFlight == 0 {
			if stats.Server.TimedOut != 1 {
				t.Fatalf("timedOut = %d, want 1", stats.Server.TimedOut)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("in-flight slot never released after timeout")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// An exact allocation honours the compute budget: this 40-app fleet's
// branch-and-bound search runs for seconds (over 6 s on a 2-vCPU host),
// so its request gets a 504 — and the search must stop and free the only
// in-flight slot right after, instead of blocking the next request.
func TestExactAllocateBudgetFreesSlot(t *testing.T) {
	ts := newTestServer(t, Config{MaxInFlight: 1, Timeout: 300 * time.Millisecond})
	code, out := postJSON(t, ts.URL+"/v1/allocate", FleetRequest{Policy: "exact", Apps: goldenFleet(13, 40)})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("exact allocation status = %d (%s), want 504", code, out)
	}
	deadline := time.Now().Add(time.Second)
	var stats StatszResponse
	for {
		if c := getJSON(t, ts.URL+"/statsz", &stats); c != http.StatusOK {
			t.Fatalf("statsz status = %d", c)
		}
		if stats.Server.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("exact search still holds its slot 1 s after the 504: %+v", stats.Server)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if stats.Server.Cancelled != 1 {
		t.Fatalf("cancelled = %d, want 1", stats.Server.Cancelled)
	}
	code, out = postJSON(t, ts.URL+"/v1/allocate", FleetRequest{Policy: "first-fit", Apps: goldenFleet(1, 2)})
	if code != http.StatusOK {
		t.Fatalf("follow-up allocation status = %d (%s), want 200", code, out)
	}
}
