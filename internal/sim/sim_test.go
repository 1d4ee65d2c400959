package sim

import (
	"context"
	"testing"

	"cpsdyn/internal/control"
	"cpsdyn/internal/flexray"
	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/plants"
	"cpsdyn/internal/switching"
)

const (
	hNS     = 20 * flexray.Millisecond // 20 ms sampling period
	ttDelay = 2 * flexray.Millisecond  // design TT delay: static segment end
	etDelay = hNS                      // design ET delay: one full period
)

// designGains builds pole-placement gains for the TT (delay ttDelay) and ET
// (delay h) closed loops of a plant, on the augmented state [x; uPrev]. The
// TT loop is made distinctly faster than the ET loop, as in the paper.
func designGains(t testing.TB, plant *lti.Continuous) (ktt, ket *mat.Matrix) {
	t.Helper()
	h := float64(hNS) / 1e9
	designs := []struct {
		delay float64
		poles []complex128
	}{
		{float64(ttDelay) / 1e9, []complex128{0.70, 0.60, 0.05}},
		{float64(etDelay) / 1e9, []complex128{0.88, 0.80, 0.10}},
	}
	for i, ds := range designs {
		disc, err := lti.Discretize(plant, h, ds.delay)
		if err != nil {
			t.Fatal(err)
		}
		abar, bbar := disc.Augmented()
		k, err := control.Ackermann(abar, bbar, ds.poles)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ktt = k
		} else {
			ket = k
		}
	}
	return ktt, ket
}

// testApp builds a ready-to-run AppConfig around the servo plant.
func testApp(t testing.TB, name string, frameID, slot int, deadline int64) *AppConfig {
	t.Helper()
	plant := plants.Servo()
	ktt, ket := designGains(t, plant)
	return &AppConfig{
		Name:     name,
		Plant:    plant,
		KTT:      ktt,
		KET:      ket,
		Eth:      0.1,
		X0:       []float64{0.785, 0}, // 45° from upright
		H:        hNS,
		R:        6 * flexray.Second,
		Deadline: deadline,
		FrameID:  frameID,
		Slot:     slot,
		DelayTT:  ttDelay,
		DelayET:  etDelay,
	}
}

func baseConfig(apps ...*AppConfig) Config {
	return Config{
		Bus:          flexray.CaseStudyConfig(),
		Apps:         apps,
		Duration:     6 * flexray.Second,
		JitterBuffer: true,
	}
}

func TestConfigValidation(t *testing.T) {
	good := testApp(t, "A", 1, 0, 2*flexray.Second)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no apps", func(c *Config) { c.Apps = nil }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"duplicate name", func(c *Config) { c.Apps = append(c.Apps, testApp(t, "A", 2, 0, flexray.Second)) }},
		{"duplicate frame", func(c *Config) { c.Apps = append(c.Apps, testApp(t, "B", 1, 0, flexray.Second)) }},
		{"bad H", func(c *Config) { c.Apps[0].H = 7 * flexray.Millisecond }},
		{"bad slot", func(c *Config) { c.Apps[0].Slot = 99 }},
		{"bad Eth", func(c *Config) { c.Apps[0].Eth = 0 }},
		{"bad X0", func(c *Config) { c.Apps[0].X0 = []float64{1} }},
		{"bad gain", func(c *Config) { c.Apps[0].KTT = mat.New(1, 2) }},
		{"bad delay", func(c *Config) { c.Apps[0].DelayET = 2 * hNS }},
	}
	for _, tc := range cases {
		cfg := baseConfig(testApp(t, "A", 1, 0, 2*flexray.Second))
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	if _, err := New(baseConfig(good)); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestSingleAppSettlesAndMeetsDeadline(t *testing.T) {
	app := testApp(t, "A", 1, 0, 3*flexray.Second)
	cfg := baseConfig(app)
	cfg.Disturbances = []Disturbance{{App: "A", Time: 0}}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	ar := res.Apps["A"]
	if len(ar.ResponseTimes) != 1 {
		t.Fatalf("response times = %v", ar.ResponseTimes)
	}
	if ar.ResponseTimes[0] < 0 {
		t.Fatal("app never settled")
	}
	if !ar.DeadlineMet {
		t.Fatalf("deadline missed: response %d ns", ar.ResponseTimes[0])
	}
	// Alone on its slot, the app must be granted immediately (TT at t=0).
	if ar.Trace[0].Mode != ModeTT {
		t.Fatalf("mode at t=0 = %v, want TT", ar.Trace[0].Mode)
	}
	// After settling, it must be back on ET.
	last := ar.Trace[len(ar.Trace)-1]
	if last.Mode != ModeET {
		t.Fatalf("final mode = %v, want ET", last.Mode)
	}
	if last.Norm > app.Eth {
		t.Fatalf("final norm %g above threshold", last.Norm)
	}
}

// The simulated response of a solo app must match the analytical pure-TT
// settling prediction from the switching model (same design delays thanks to
// the jitter buffer) to within a couple of samples.
func TestSimMatchesAnalyticalTTResponse(t *testing.T) {
	app := testApp(t, "A", 1, 0, 3*flexray.Second)
	h := float64(hNS) / 1e9

	discTT, err := lti.Discretize(app.Plant, h, float64(ttDelay)/1e9)
	if err != nil {
		t.Fatal(err)
	}
	discET, err := lti.Discretize(app.Plant, h, float64(etDelay)/1e9)
	if err != nil {
		t.Fatal(err)
	}
	aTT, bTT := discTT.Augmented()
	aET, bET := discET.Augmented()
	sys := &switching.System{
		Name:     "A",
		A1:       aET.Sub(bET.Mul(app.KET)),
		A2:       aTT.Sub(bTT.Mul(app.KTT)),
		X0:       []float64{0.785, 0, 0},
		Eth:      app.Eth,
		NormDims: 2,
		H:        h,
	}
	kTT, ok, err := sys.ProbeSteps(context.Background(), "TT loop", sys.A2, 10000, new(switching.Workspace))
	if err != nil || !ok {
		t.Fatalf("analytical TT loop did not settle: %v", err)
	}

	cfg := baseConfig(app)
	cfg.Disturbances = []Disturbance{{App: "A", Time: 0}}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := res.Apps["A"].ResponseTimes[0]
	want := int64(kTT) * hNS
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > 2*hNS {
		t.Fatalf("simulated response %d ns vs analytical %d ns (Δ > 2 samples)", got, want)
	}
}

func TestTwoAppsShareSlotNonPreemptive(t *testing.T) {
	hi := testApp(t, "HI", 1, 0, 2*flexray.Second)
	lo := testApp(t, "LO", 2, 0, 4*flexray.Second)
	cfg := baseConfig(hi, lo)
	cfg.Duration = 8 * flexray.Second
	cfg.Disturbances = []Disturbance{{App: "HI", Time: 0}, {App: "LO", Time: 0}}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The shorter-deadline app gets the slot first.
	if res.Apps["HI"].Trace[0].Mode != ModeTT {
		t.Fatalf("HI at t=0: %v, want TT", res.Apps["HI"].Trace[0].Mode)
	}
	if res.Apps["LO"].Trace[0].Mode != ModeWait {
		t.Fatalf("LO at t=0: %v, want WAIT", res.Apps["LO"].Trace[0].Mode)
	}
	// Slot events: HI, free (or LO) — non-preemptive single switch.
	events := res.SlotHolder[0]
	if len(events) < 2 || events[0].Holder != "HI" {
		t.Fatalf("slot events %v", events)
	}
	// LO must eventually hold the slot and both must settle.
	sawLO := false
	for _, ev := range events {
		if ev.Holder == "LO" {
			sawLO = true
		}
	}
	if !sawLO {
		t.Fatal("LO never obtained the slot")
	}
	for _, name := range []string{"HI", "LO"} {
		ar := res.Apps[name]
		if ar.ResponseTimes[0] < 0 || !ar.DeadlineMet {
			t.Fatalf("%s: response %v, deadlineMet=%v", name, ar.ResponseTimes, ar.DeadlineMet)
		}
	}
	// While HI held the slot, LO must never appear in TT mode.
	holderUntil := events[1].Time
	for _, p := range res.Apps["LO"].Trace {
		if p.Time < holderUntil && p.Mode == ModeTT {
			t.Fatal("LO entered TT while HI held the slot (preemption!)")
		}
	}
}

func TestWaitingAppSettlingOverETWithdraws(t *testing.T) {
	// LO is disturbed while HI holds the slot; before HI releases, the
	// external disturbance vanishes (state reset below the threshold), so
	// LO must withdraw its pending request rather than take the slot.
	hi := testApp(t, "HI", 1, 0, 2*flexray.Second)
	lo := testApp(t, "LO", 2, 0, 4*flexray.Second)
	cfg := baseConfig(hi, lo)
	cfg.Disturbances = []Disturbance{
		{App: "HI", Time: 0},
		{App: "LO", Time: 0, State: []float64{0.3, 0}},
		{App: "LO", Time: 60 * flexray.Millisecond, State: []float64{0, 0}},
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// LO must never have been granted the slot.
	for _, ev := range res.SlotHolder[0] {
		if ev.Holder == "LO" {
			t.Fatal("LO should have withdrawn, not acquired the slot")
		}
	}
	// LO's mode sequence: WAIT while disturbed, then back to ET, never TT.
	sawWait := false
	for _, p := range res.Apps["LO"].Trace {
		if p.Mode == ModeWait {
			sawWait = true
		}
		if p.Mode == ModeTT {
			t.Fatal("LO must never enter TT mode")
		}
	}
	if !sawWait {
		t.Fatal("LO never reached WAIT mode")
	}
	last := res.Apps["LO"].Trace[len(res.Apps["LO"].Trace)-1]
	if last.Mode != ModeET {
		t.Fatalf("LO final mode %v, want ET", last.Mode)
	}
}

func TestNoDisturbanceStaysET(t *testing.T) {
	app := testApp(t, "A", 1, 0, 2*flexray.Second)
	cfg := baseConfig(app)
	cfg.Duration = flexray.Second
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Apps["A"].Trace {
		if p.Mode != ModeET {
			t.Fatalf("mode %v at %d without disturbance", p.Mode, p.Time)
		}
		if p.Norm != 0 {
			t.Fatalf("norm %g at %d without disturbance", p.Norm, p.Time)
		}
	}
}

func TestJitterBufferOffStillSettles(t *testing.T) {
	app := testApp(t, "A", 1, 0, 3*flexray.Second)
	cfg := baseConfig(app)
	cfg.JitterBuffer = false
	cfg.Disturbances = []Disturbance{{App: "A", Time: 0}}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps["A"].ResponseTimes[0] < 0 {
		t.Fatal("app never settled without the jitter buffer")
	}
}

func TestRepeatedDisturbances(t *testing.T) {
	app := testApp(t, "A", 1, 0, 3*flexray.Second)
	cfg := baseConfig(app)
	cfg.Duration = 12 * flexray.Second
	cfg.Disturbances = []Disturbance{
		{App: "A", Time: 0},
		{App: "A", Time: 6 * flexray.Second},
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	ar := res.Apps["A"]
	if len(ar.ResponseTimes) != 2 {
		t.Fatalf("response times %v, want 2 entries", ar.ResponseTimes)
	}
	for i, rt := range ar.ResponseTimes {
		if rt < 0 {
			t.Fatalf("disturbance %d never rejected", i)
		}
	}
	if !ar.DeadlineMet {
		t.Fatal("deadlines missed across repeated disturbances")
	}
}

func TestDisturbanceUnknownApp(t *testing.T) {
	app := testApp(t, "A", 1, 0, 2*flexray.Second)
	cfg := baseConfig(app)
	cfg.Disturbances = []Disturbance{{App: "Z", Time: 0}}
	if _, err := New(cfg); err == nil {
		t.Fatal("want error for disturbance targeting an unknown app")
	}
}

func TestMeasureResponse(t *testing.T) {
	mk := func(times []int64, norms []float64) []TracePoint {
		out := make([]TracePoint, len(times))
		for i := range times {
			out[i] = TracePoint{Time: times[i], Norm: norms[i]}
		}
		return out
	}
	tr := mk([]int64{0, 10, 20, 30, 40}, []float64{1, 0.5, 0.05, 0.04, 0.01})
	if got := measureResponse(tr, 0, 0.1, 100); got != 20 {
		t.Fatalf("response = %d, want 20", got)
	}
	// Re-crossing: settles only after the second excursion.
	tr = mk([]int64{0, 10, 20, 30, 40}, []float64{1, 0.05, 0.5, 0.04, 0.01})
	if got := measureResponse(tr, 0, 0.1, 100); got != 30 {
		t.Fatalf("response = %d, want 30", got)
	}
	// Never settles.
	tr = mk([]int64{0, 10, 20}, []float64{1, 1, 1})
	if got := measureResponse(tr, 0, 0.1, 100); got != -1 {
		t.Fatalf("response = %d, want -1", got)
	}
	// Already settled.
	tr = mk([]int64{0, 10}, []float64{0.01, 0.02})
	if got := measureResponse(tr, 0, 0.1, 100); got != 0 {
		t.Fatalf("response = %d, want 0", got)
	}
	// Empty window.
	if got := measureResponse(tr, 50, 0.1, 60); got != -1 {
		t.Fatalf("response = %d, want -1 for empty window", got)
	}
}

func TestModeString(t *testing.T) {
	if ModeET.String() != "ET" || ModeWait.String() != "WAIT" || ModeTT.String() != "TT" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode string must not be empty")
	}
}
