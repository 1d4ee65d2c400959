package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
)

// wireCase is one request of the wire battery: a POST of body to path.
type wireCase struct {
	name, path, body string
}

// wireReply is one recorded answer: the status and the exact body bytes.
type wireReply struct {
	Case   string `json:"case"`
	Status int    `json:"status"`
	Body   string `json:"body"`
}

// wireJSON marshals v for a request body.
func wireJSON(t testing.TB, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// wireLines renders vs one per line, the NDJSON request form. A string is
// written verbatim, so a malformed line can sit between well-formed ones.
func wireLines(t testing.TB, vs ...any) string {
	t.Helper()
	var b strings.Builder
	for _, v := range vs {
		if s, ok := v.(string); ok {
			b.WriteString(s)
		} else {
			b.WriteString(wireJSON(t, v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// wireDeriveCases is the derive part of the battery: successes, validation
// failures, unstable loops and malformed lines, buffered and streamed.
func wireDeriveCases(t testing.TB) []wireCase {
	ok := shardedDeriveRequest(6).Apps
	unstable := shardedDeriveRequest(3).Apps
	for i := range unstable {
		unstable[i].Name = fmt.Sprintf("U%d", i+1)
		unstable[i].PolesET = []float64{1.2, 0.88, 0.1}
	}
	mixed := []DeriveAppSpec{ok[0], unstable[0], ok[1], unstable[1]}
	dup := []DeriveAppSpec{ok[0], ok[1], ok[0]}
	badH := ok[2]
	badH.H = 0
	ragged := ok[3]
	ragged.Plant.A = [][]float64{{0, 1}, {-2}}
	noFrame := ok[4]
	noFrame.FrameID = 0
	withFrame := ok[5]
	withFrame.FrameID = 9
	dupLine := ok[1]
	dupLine.Name = ok[0].Name
	return []wireCase{
		{"derive/ok", "/v1/derive", wireJSON(t, DeriveRequest{Apps: ok})},
		{"derive/ok-workers-1", "/v1/derive", wireJSON(t, DeriveRequest{Workers: 1, Apps: ok[:3]})},
		{"derive/frame-ids", "/v1/derive", wireJSON(t, DeriveRequest{Apps: []DeriveAppSpec{noFrame, withFrame}})},
		{"derive/unstable", "/v1/derive", wireJSON(t, DeriveRequest{Apps: unstable})},
		{"derive/mixed", "/v1/derive", wireJSON(t, DeriveRequest{Apps: mixed})},
		{"derive/duplicate", "/v1/derive", wireJSON(t, DeriveRequest{Apps: dup})},
		{"derive/bad-h", "/v1/derive", wireJSON(t, DeriveRequest{Apps: []DeriveAppSpec{ok[0], badH}})},
		{"derive/ragged", "/v1/derive", wireJSON(t, DeriveRequest{Apps: []DeriveAppSpec{ragged}})},
		{"derive/no-apps", "/v1/derive", `{"apps":[]}`},
		{"derive/bad-json", "/v1/derive", `{`},
		{"derive/unknown-field", "/v1/derive", `{"wat":1}`},
		{"derive/trailing", "/v1/derive", wireJSON(t, DeriveRequest{Apps: ok[:1]}) + " trailing"},
		{"derive/stream-ok", "/v1/derive/stream", wireLines(t, ok[0], ok[1], ok[2], ok[3], ok[4], ok[5])},
		{"derive/stream-mixed", "/v1/derive/stream", wireLines(t,
			ok[0], "{broken json", dupLine, badH, unstable[0], ragged, noFrame, withFrame, `{"name":"x","wat":1}`, unstable[2], ok[3])},
		{"derive/stream-workers-1", "/v1/derive/stream?workers=1", wireLines(t, ok[2], unstable[1], ok[1])},
		{"derive/stream-bad-workers", "/v1/derive/stream?workers=x", wireLines(t, ok[0])},
	}
}

// wireCalibrateCases is the calibrate part of the battery.
func wireCalibrateCases(t testing.TB) []wireCase {
	probe := CalibrateAppSpec{
		Name:  "probe",
		Plant: PlantSpec{A: [][]float64{{0, 1}, {-2, -3}}, B: [][]float64{{0}, {1}}},
		H:     0.02, DelayTT: 0.002, DelayET: 0.02, Eth: 0.1, X0: []float64{0, 2},
		R: 8, Deadline: 3, TargetXiTT: 0.7, TargetXiET: 2.0,
	}
	servo := servoDeriveRequest(1).Apps[0]
	servoCal := CalibrateAppSpec{
		Name: "servo", Plant: servo.Plant, H: servo.H, DelayTT: servo.DelayTT,
		DelayET: servo.DelayET, Eth: servo.Eth, X0: servo.X0, R: servo.R,
		Deadline: servo.Deadline, TargetXiTT: 0.68, TargetXiET: 2.16,
	}
	oscillating := servoCal
	oscillating.Name, oscillating.EtOmega = "oscillating", 3
	stuck := probe // an input that cannot move the plant: every probe fails
	stuck.Name = "stuck"
	stuck.Plant.B = [][]float64{{0}, {0}}
	badTargets := probe
	badTargets.Name, badTargets.TargetXiTT, badTargets.TargetXiET = "bad", 2.0, 1.0
	dupProbe := probe
	dupProbe.TargetXiTT = 0.9
	return []wireCase{
		{"calibrate/ok", "/v1/calibrate", wireJSON(t, CalibrateRequest{Apps: []CalibrateAppSpec{probe, servoCal, oscillating}})},
		{"calibrate/search-fails", "/v1/calibrate", wireJSON(t, CalibrateRequest{Apps: []CalibrateAppSpec{probe, stuck}})},
		{"calibrate/bad-targets", "/v1/calibrate", wireJSON(t, CalibrateRequest{Apps: []CalibrateAppSpec{probe, badTargets}})},
		{"calibrate/duplicate", "/v1/calibrate", wireJSON(t, CalibrateRequest{Apps: []CalibrateAppSpec{probe, dupProbe}})},
		{"calibrate/no-apps", "/v1/calibrate", `{"apps":[]}`},
		{"calibrate/bad-json", "/v1/calibrate", `{`},
		{"calibrate/unknown-field", "/v1/calibrate", `{"wat":1}`},
		{"calibrate/stream", "/v1/calibrate/stream", wireLines(t,
			probe, "{nope", badTargets, stuck, servoCal, dupProbe, `{"name":"bad2","targetXiTT":-1}`)},
	}
}

// wireAllocateCases is the allocate part of the battery.
func wireAllocateCases(t testing.TB) []wireCase {
	var tableI FleetRequest
	if err := json.Unmarshal([]byte(tableIJSON), &tableI); err != nil {
		t.Fatal(err)
	}
	named := func(name, policy, method string, apps []AppSpec) FleetRequest {
		return FleetRequest{Name: name, Policy: policy, Method: method, Apps: apps}
	}
	conservative := make([]AppSpec, len(tableI.Apps))
	for i, a := range tableI.Apps {
		a.Model.Kind, a.Model.XiTT = "conservative", 0
		conservative[i] = a
	}
	infeasible := []AppSpec{{Name: "a", R: 10, Deadline: 0.1,
		Model: ModelSpec{Kind: "non-monotonic", XiTT: 1, Kp: 2, XiM: 3, XiET: 5}}}
	simple := []AppSpec{{Name: "s", R: 1, Deadline: 1, Model: ModelSpec{Kind: "simple", XiTT: 0.1, XiET: 0.5}}}
	dupApps := []AppSpec{simple[0], simple[0]}
	badKind := []AppSpec{{Name: "k", R: 1, Deadline: 1, Model: ModelSpec{Kind: "wavy"}}}
	batch := AllocateRequest{Fleets: []FleetRequest{
		named("nonmono", "first-fit", "closed-form", tableI.Apps),
		named("cons", "best-fit", "fixed-point", conservative),
		named("raced", "race", "closed-form", tableI.Apps),
		named("exact", "exact", "closed-form", tableI.Apps),
		named("doomed", "race", "", infeasible),
		{Policy: "sequential", Apps: simple},
	}}
	return []wireCase{
		{"allocate/tableI", "/v1/allocate", tableIJSON},
		{"allocate/race-fixed-point", "/v1/allocate", wireJSON(t, named("", "race", "fixed-point", tableI.Apps))},
		{"allocate/unsafe", "/v1/allocate", wireJSON(t, named("unsafe", "", "", simple))},
		{"allocate/infeasible", "/v1/allocate", wireJSON(t, named("doomed", "", "", infeasible))},
		{"allocate/batch", "/v1/allocate", wireJSON(t, batch)},
		{"allocate/bad-policy", "/v1/allocate", wireJSON(t, named("", "magic", "", simple))},
		{"allocate/bad-method", "/v1/allocate", wireJSON(t, named("", "", "guess", simple))},
		{"allocate/bad-kind", "/v1/allocate", wireJSON(t, AllocateRequest{Fleets: []FleetRequest{named("ok", "", "", simple), named("k", "", "", badKind)}})},
		{"allocate/duplicate", "/v1/allocate", wireJSON(t, AllocateRequest{Fleets: []FleetRequest{{Apps: dupApps}, {Name: "empty"}}})},
		{"allocate/no-apps", "/v1/allocate", `{}`},
		{"allocate/mixed-forms", "/v1/allocate", `{"apps":[{"name":"a","r":1,"deadline":1,"model":{"kind":"simple","xiTT":0.1,"xiET":0.5}}],"fleets":[{"apps":[]}]}`},
		{"allocate/top-level-policy", "/v1/allocate", `{"policy":"race","fleets":[{"apps":[{"name":"a","r":1,"deadline":1,"model":{"kind":"simple","xiTT":0.1,"xiET":0.5}}]}]}`},
		{"allocate/bad-json", "/v1/allocate", `{`},
		{"allocate/stream", "/v1/allocate/stream", wireLines(t,
			named("tableI", "", "", tableI.Apps), "{nope", named("doomed", "exact", "", infeasible),
			named("magic", "magic", "", simple), named("cons", "race", "fixed-point", conservative),
			FleetRequest{Apps: dupApps}, named("exact", "exact", "closed-form", tableI.Apps))},
	}
}

// cacheBlock matches the process-wide cache counters of a buffered derive
// or calibrate reply, which depend on what ran before in the process.
var cacheBlock = regexp.MustCompile(`"cache": \{[^{}]*\}`)

// wireReplies posts every case to base and records each reply, the cache
// counters blanked.
func wireReplies(t testing.TB, prefix, base string, cases []wireCase) []wireReply {
	t.Helper()
	out := make([]wireReply, 0, len(cases))
	for _, c := range cases {
		resp, err := http.Post(base+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wireReply{
			Case:   prefix + c.name,
			Status: resp.StatusCode,
			Body:   cacheBlock.ReplaceAllString(string(body), `"cache": {}`),
		})
	}
	return out
}

// wireBattery runs the whole battery: every case on a single node, and the
// derive cases through a gateway sharding across two replicas.
func wireBattery(t *testing.T) []wireReply {
	single := newTestServer(t, Config{Workers: 2})
	var cases []wireCase
	cases = append(cases, wireDeriveCases(t)...)
	cases = append(cases, wireCalibrateCases(t)...)
	cases = append(cases, wireAllocateCases(t)...)
	replies := wireReplies(t, "single/", single.URL, cases)
	gw, _ := newGatewayCluster(t, 2, Config{Workers: 2})
	return append(replies, wireReplies(t, "gateway/", gw.URL, wireDeriveCases(t))...)
}

// The service's replies are pinned byte for byte: every status, every body
// of derive, calibrate and allocate, buffered and streamed, on a single
// node and through a gateway. testdata/wire_golden.ndjson was recorded
// from the service before derive, calibrate and allocate each answered
// through one per-item function, then edited by hand for two deliberate
// changes only: calibrate rejects duplicate app names like derive does,
// and a failed calibration search in a stream row names its app like the
// buffered reply. It must never be regenerated from the code it checks.
func TestWireRepliesMatchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/wire_golden.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, r := range wireBattery(t) {
		if err := EncodeResult(&got, r); err != nil {
			t.Fatal(err)
		}
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d reply lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("reply %d differs from the golden file\n got %.600s\nwant %.600s", i, gotLines[i], wantLines[i])
		}
	}
}
