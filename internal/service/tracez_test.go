package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"

	"cpsdyn/internal/obs"
)

// A completed request must show up on /tracez with its stage breakdown —
// the decode and encode stages at minimum, since every buffered request
// passes through both — and with a usable span identity.
func TestTracezReportsFinishedRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	if code, out := postJSON(t, ts.URL+"/v1/derive", servoDeriveRequest(2)); code != http.StatusOK {
		t.Fatalf("derive status = %d: %s", code, out)
	}
	var tz TracezResponse
	if code := getJSON(t, ts.URL+"/tracez", &tz); code != http.StatusOK {
		t.Fatalf("/tracez status = %d", code)
	}
	var span *obs.TraceSnapshot
	for i := range tz.Traces {
		if tz.Traces[i].Op == "derive" {
			span = &tz.Traces[i]
			break
		}
	}
	if span == nil {
		t.Fatalf("no derive span on /tracez: %+v", tz.Traces)
	}
	if span.ID == "" || span.Parent != "" || span.Seconds <= 0 {
		t.Fatalf("derive span = %+v, want a rooted span with positive duration", span)
	}
	stages := make(map[string]obs.StageBreakdown, len(span.Stages))
	for _, st := range span.Stages {
		if st.Count == 0 || st.Seconds < 0 {
			t.Fatalf("stage %+v, want positive count and non-negative time", st)
		}
		stages[st.Stage] = st
	}
	for _, want := range []string{"decode", "encode"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("derive span missing stage %q: %+v", want, span.Stages)
		}
	}
	if stages["decode"].Count != 1 || stages["encode"].Count != 1 {
		t.Errorf("buffered request decode/encode counts = %+v, want 1 each", span.Stages)
	}
}

// The acceptance pin of trace propagation: a traced stream through a
// gateway and two replicas answers byte-identically to an untraced
// single-node run, the gateway records the root span under the client's
// parent ID, and every row is accounted for by replica child spans whose
// Parent is the gateway's trace ID.
func TestGatewayTracePropagation(t *testing.T) {
	req := shardedDeriveRequest(24)

	// Untraced reference: the stream engine run directly, no server, no
	// trace in the context.
	var want bytes.Buffer
	if _, err := DeriveStream(context.Background(), ndjsonBody(t, req.Apps), &want, StreamOptions{}); err != nil {
		t.Fatal(err)
	}

	gw, replicas := newGatewayCluster(t, 2, Config{})
	const clientTrace = "cafef00ddeadbeef"
	hreq, err := http.NewRequest(http.MethodPost, gw.URL+"/v1/derive/stream?workers=3", ndjsonBody(t, req.Apps))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/x-ndjson")
	hreq.Header.Set(obs.TraceHeader, clientTrace)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced gateway stream status = %d", resp.StatusCode)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("traced gateway stream differs from untraced single-node output:\n gateway %s\n single  %s",
			got, want.Bytes())
	}

	// The gateway's root span: child of the client's trace ID.
	var gz TracezResponse
	if code := getJSON(t, gw.URL+"/tracez", &gz); code != http.StatusOK {
		t.Fatalf("gateway /tracez status = %d", code)
	}
	root := ""
	for _, tr := range gz.Traces {
		if tr.Op == "derive/stream" && tr.Parent == clientTrace {
			root = tr.ID
			if tr.Rows != int64(len(req.Apps)) {
				t.Fatalf("root span rows = %d, want %d", tr.Rows, len(req.Apps))
			}
		}
	}
	if root == "" {
		t.Fatalf("gateway /tracez has no derive/stream span with parent %q: %+v", clientTrace, gz.Traces)
	}

	// Replica child spans: one per shard owner's sub-stream, Parent set to
	// the gateway's trace ID, and their rows together covering the request
	// (healthy peers answered everything remotely).
	var childRows int64
	children := 0
	for i, r := range replicas {
		var rz TracezResponse
		if code := getJSON(t, r.URL+"/tracez", &rz); code != http.StatusOK {
			t.Fatalf("replica %d /tracez status = %d", i, code)
		}
		for _, tr := range rz.Traces {
			if tr.Parent != root {
				continue
			}
			children++
			childRows += tr.Rows
			if tr.Op != "derive/stream" {
				t.Errorf("replica %d child span op = %q, want derive/stream", i, tr.Op)
			}
		}
	}
	if children == 0 {
		t.Fatal("no replica child spans carry the gateway's trace ID")
	}
	if childRows != int64(len(req.Apps)) {
		t.Fatalf("child spans account for %d rows, want %d (all rows on traced sub-streams)",
			childRows, len(req.Apps))
	}
}

// A cold derive's span reports exactly the simulation steps it paid for —
// the /statsz simSteps delta across the request — and a warm replay of
// the same request reports none.
func TestTracezReportsSimSteps(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := servoDeriveRequest(1)
	var before, after StatszResponse
	if code := getJSON(t, ts.URL+"/statsz", &before); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	for i := 0; i < 2; i++ {
		if code, out := postJSON(t, ts.URL+"/v1/derive", req); code != http.StatusOK {
			t.Fatalf("derive %d status = %d: %s", i, code, out)
		}
		if i == 0 {
			if code := getJSON(t, ts.URL+"/statsz", &after); code != http.StatusOK {
				t.Fatalf("statsz status = %d", code)
			}
		}
	}
	cold := after.SimSteps - before.SimSteps
	if cold == 0 {
		t.Fatal("the cold derive simulated nothing")
	}
	var tz TracezResponse
	if code := getJSON(t, ts.URL+"/tracez", &tz); code != http.StatusOK {
		t.Fatalf("/tracez status = %d", code)
	}
	var steps []uint64
	for _, tr := range tz.Traces {
		if tr.Op == "derive" {
			steps = append(steps, tr.SimSteps)
		}
	}
	if len(steps) != 2 || steps[0]+steps[1] != cold || (steps[0] != 0 && steps[1] != 0) {
		t.Fatalf("derive spans report %v simulated steps, want %d for the cold one and 0 for the warm one", steps, cold)
	}
}

// A derive whose TT loop has no stop certificate (its first pole, 0.99995,
// needs more than the 20 000-step horizon to contract 4×) still derives,
// but every one of its walks runs to the horizon; it reports the refusal
// on its span and on /statsz. The servo derive before it, whose loops
// both certify, reports none.
func TestTracezReportsCertRefusals(t *testing.T) {
	ts := newTestServer(t, Config{})
	var before, after StatszResponse
	if code := getJSON(t, ts.URL+"/statsz", &before); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	if code, out := postJSON(t, ts.URL+"/v1/derive", servoDeriveRequest(1)); code != http.StatusOK {
		t.Fatalf("servo derive status = %d: %s", code, out)
	}
	slow := servoDeriveRequest(1)
	slow.Apps[0].Name = "slow"
	slow.Apps[0].PolesTT = []float64{0.99995, 0.70, 0.05}
	if code, out := postJSON(t, ts.URL+"/v1/derive", slow); code != http.StatusOK {
		t.Fatalf("slow derive status = %d: %s", code, out)
	}
	if code := getJSON(t, ts.URL+"/statsz", &after); code != http.StatusOK {
		t.Fatalf("statsz status = %d", code)
	}
	if got := after.CertRefusals - before.CertRefusals; got != 1 {
		t.Fatalf("/statsz certRefusals advanced by %d, want 1", got)
	}
	var tz TracezResponse
	if code := getJSON(t, ts.URL+"/tracez", &tz); code != http.StatusOK {
		t.Fatalf("/tracez status = %d", code)
	}
	var refusals []uint64
	for _, tr := range tz.Traces {
		if tr.Op == "derive" {
			refusals = append(refusals, tr.CertRefusals)
		}
	}
	if len(refusals) != 2 || refusals[0]+refusals[1] != 1 || (refusals[0] != 0 && refusals[1] != 0) {
		t.Fatalf("derive spans report %v certificate refusals, want 1 for the slow loop and 0 for the servo", refusals)
	}
}

// A calibrate stream's span carries the time of its pole-radius searches
// as the search stage, one count per calibrated app.
func TestTracezReportsSearchStage(t *testing.T) {
	ts := newTestServer(t, Config{})
	servo := servoDeriveRequest(1).Apps[0]
	spec := CalibrateAppSpec{
		Name: "servo", Plant: servo.Plant, H: servo.H, DelayTT: servo.DelayTT, DelayET: servo.DelayET,
		Eth: servo.Eth, X0: servo.X0, R: servo.R, Deadline: servo.Deadline,
		TargetXiTT: 0.68, TargetXiET: 2.16,
	}
	var buf bytes.Buffer
	if err := EncodeResult(&buf, spec); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/calibrate/stream", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || bytes.Contains(out, []byte(`"error"`)) {
		t.Fatalf("calibrate stream status = %d, err %v: %s", resp.StatusCode, err, out)
	}
	var tz TracezResponse
	if code := getJSON(t, ts.URL+"/tracez", &tz); code != http.StatusOK {
		t.Fatalf("/tracez status = %d", code)
	}
	for _, tr := range tz.Traces {
		if tr.Op != "calibrate/stream" {
			continue
		}
		for _, st := range tr.Stages {
			if st.Stage == obs.StageSearch.String() {
				if st.Count != 1 || !(st.Seconds > 0) {
					t.Fatalf("search stage = %+v, want one count and a positive time", st)
				}
				return
			}
		}
		t.Fatalf("calibrate stream span has no search stage: %+v", tr.Stages)
	}
	t.Fatalf("no calibrate/stream span on /tracez: %+v", tz.Traces)
}
