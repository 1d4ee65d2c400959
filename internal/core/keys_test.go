package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"sync"
	"testing"

	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/plants"
	"cpsdyn/internal/switching"
)

// keyFixtures are the store-address fixtures: probe design 0 of the CI
// probe family, the diesel engine, an LQR servo with explicit weights and
// an output matrix, a plant without an output matrix under the default LQR
// weights, and a servo whose delay and initial state carry −0.
func keyFixtures() []struct {
	name string
	app  *Application
} {
	probe := &Application{
		Name: "probe-0",
		Plant: &lti.Continuous{Name: "probe",
			A: mat.FromRows([][]float64{{0, 1}, {-2, -3}}),
			B: mat.FromRows([][]float64{{0}, {1}})},
		H: 0.02, DelayTT: 0.002, DelayET: 0.02, Eth: 0.1, X0: []float64{0, 2},
		R: 8, Deadline: 3, FrameID: 1,
		PolesTT: []complex128{0.70, 0.7, 0.05},
		PolesET: []complex128{0.93, 0.88, 0.1},
	}
	diesel := &Application{
		Name: "diesel",
		Plant: &lti.Continuous{Name: "diesel",
			A: mat.FromRows([][]float64{
				{-0.4125, -0.0248, 0.0741, 0.0089, 0, 0},
				{101.5873, -7.2651, 2.7608, 2.8068, 0, 0},
				{0.0704, 0.0085, -0.0741, -0.0089, 0, 0.0200},
				{0.0878, 0.2672, 0, -0.3674, 0.0044, 0.3962},
				{-1.8414, 0.0990, 0, 0, -0.0343, -0.0330},
				{0, 0, 0, -359, 187.5364, -87.0316},
			}),
			B: mat.FromRows([][]float64{{0.0064}, {1.5849}, {0}, {0}, {-0.0168}, {0}})},
		H: 0.02, DelayTT: 0.002, DelayET: 0.02, Eth: 0.1, X0: []float64{0, 2, 0, 0, 0, 0},
		R: 8, Deadline: 3, FrameID: 1,
		PolesTT: []complex128{0.80, 0.78, 0.76, 0.74, 0.72, 0.70, 0.05},
		PolesET: []complex128{0.93, 0.92, 0.91, 0.90, 0.89, 0.88, 0.10},
	}
	lqr := servoApp("lqr-servo", 1, 6)
	lqr.Plant.C = mat.FromRows([][]float64{{1, 0}})
	lqr.PolesTT, lqr.PolesET = nil, nil
	lqr.QTT = mat.FromRows([][]float64{{10, 0, 0}, {0, 1, 0}, {0, 0, 1e-3}})
	lqr.RTT = mat.FromRows([][]float64{{0.5}})
	lqr.QET = mat.FromRows([][]float64{{4, 0, 0}, {0, 1, 0}, {0, 0, 1e-4}})
	lqr.RET = mat.FromRows([][]float64{{2}})
	nilC := servoApp("nil-c", 1, 6)
	nilC.Plant = plants.DCMotorPosition()
	nilC.Plant.C = nil
	nilC.PolesTT, nilC.PolesET = nil, nil
	negZero := servoApp("neg-zero", 1, 3)
	negZero.DelayTT = math.Copysign(0, -1)
	negZero.X0 = []float64{math.Copysign(0, -1), 2}
	return []struct {
		name string
		app  *Application
	}{{"probe-0", probe}, {"diesel", diesel}, {"lqr-servo", lqr}, {"nil-c", nilC}, {"neg-zero", negZero}}
}

// keyRecorder is an ArtifactStore that misses every Get and remembers the
// keys it was asked for: the store addresses a derivation uses.
type keyRecorder struct {
	mu   sync.Mutex
	keys []string
}

func (r *keyRecorder) Get(key string) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys = append(r.keys, key)
	return nil, false
}

func (r *keyRecorder) Put(string, any) {}

// The cache keys are the disk store's record addresses: a store written by
// an older build is found only if every key keeps its bytes. The golden
// file holds, per fixture, the CacheKey and the keys a cold derivation
// asked the store for, as recorded from the fmt-based key builders these
// appenders replaced. It must never be regenerated from the code it
// checks. The recorded addresses also show the derivation bundle never
// reaching the store.
func TestStoreKeysMatchGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/store_keys.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []struct {
		Name      string   `json:"name"`
		CacheKey  string   `json:"cacheKey"`
		StoreKeys []string `json:"storeKeys"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	fixtures := keyFixtures()
	if len(golden) != len(fixtures) {
		t.Fatalf("%d golden entries for %d fixtures", len(golden), len(fixtures))
	}
	rec := &keyRecorder{}
	ResetDeriveCache()
	SetDeriveStore(rec)
	t.Cleanup(func() {
		SetDeriveStore(nil)
		ResetDeriveCache()
	})
	for i, f := range fixtures {
		g := golden[i]
		if g.Name != f.name {
			t.Fatalf("golden entry %d is %q, fixture is %q", i, g.Name, f.name)
		}
		if got := f.app.CacheKey(); got != g.CacheKey {
			t.Errorf("%s: CacheKey\n got %s\nwant %s", f.name, got, g.CacheKey)
		}
		ResetDeriveCache()
		rec.keys = nil
		d, err := f.app.DeriveContext(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if !slices.Equal(rec.keys, g.StoreKeys) {
			t.Errorf("%s: store addresses\n got %q\nwant %q", f.name, rec.keys, g.StoreKeys)
		}
		built := []string{
			discKey(f.app.Plant, f.app.H, f.app.DelayTT),
			discKey(f.app.Plant, f.app.H, f.app.DelayET),
			curveKey(d.Sys, 0),
		}
		if !slices.Equal(built, g.StoreKeys) {
			t.Errorf("%s: discKey/curveKey\n got %q\nwant %q", f.name, built, g.StoreKeys)
		}
	}
}

// randomBits draws float64 bit patterns weighted towards the special
// classes: ±0, subnormals, ±Inf, NaNs with random payloads and signs, the
// extremes of the normal range, and arbitrary patterns.
func randomBits(r *rand.Rand) float64 {
	sign := r.Uint64() & (1 << 63)
	switch r.IntN(7) {
	case 0:
		return math.Float64frombits(sign)
	case 1:
		return math.Float64frombits(sign | (r.Uint64()&(1<<52-1) | 1))
	case 2:
		return math.Float64frombits(sign | 0x7ff<<52)
	case 3:
		return math.Float64frombits(sign | 0x7ff<<52 | (r.Uint64()&(1<<52-1) | 1))
	case 4:
		return math.Float64frombits(sign | []uint64{1 << 52, 0x7fe<<52 | (1<<52 - 1)}[r.IntN(2)])
	default:
		return math.Float64frombits(r.Uint64())
	}
}

// The fmt reference builders below are the key builders as they were
// before the appenders: one fmt verb per float and per dimension header.

func fmtFloat(v float64) string { return fmt.Sprintf("%016x;", math.Float64bits(v)) }

func fmtMatrix(m *mat.Matrix) string {
	if m == nil {
		return "nil|"
	}
	s := fmt.Sprintf("%dx%d:", m.Rows(), m.Cols())
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			s += fmtFloat(m.At(i, j))
		}
	}
	return s + "|"
}

func fmtVec(v []float64) string {
	s := fmt.Sprintf("v%d:", len(v))
	for _, x := range v {
		s += fmtFloat(x)
	}
	return s + "|"
}

func fmtPoles(ps []complex128) string {
	s := fmt.Sprintf("p%d:", len(ps))
	for _, p := range ps {
		s += fmtFloat(real(p)) + fmtFloat(imag(p))
	}
	return s + "|"
}

func randomMatrix(r *rand.Rand, rows, cols int) *mat.Matrix {
	m := mat.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, randomBits(r))
		}
	}
	return m
}

func randomVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = randomBits(r)
	}
	return v
}

// The appenders must produce byte for byte what the fmt verbs they replace
// produce, for every bit pattern and dimension, and so must the three key
// builders assembled from them.
func TestKeyAppendersMatchFmt(t *testing.T) {
	r := rand.New(rand.NewPCG(16, 1))
	for i := 0; i < 20000; i++ {
		v := randomBits(r)
		if got, want := string(keyFloat([]byte("pre"), v)), "pre"+fmtFloat(v); got != want {
			t.Fatalf("keyFloat(%#x) = %q, want %q", math.Float64bits(v), got, want)
		}
	}
	if got := string(keyMatrix(nil, nil)); got != "nil|" {
		t.Fatalf("keyMatrix(nil) = %q", got)
	}
	for i := 0; i < 300; i++ {
		m := randomMatrix(r, 1+r.IntN(12), 1+r.IntN(12))
		if got, want := string(keyMatrix(nil, m)), fmtMatrix(m); got != want {
			t.Fatalf("keyMatrix\n got %q\nwant %q", got, want)
		}
		vec := randomVec(r, r.IntN(40))
		if got, want := string(keyVec(nil, vec)), fmtVec(vec); got != want {
			t.Fatalf("keyVec\n got %q\nwant %q", got, want)
		}
		poles := make([]complex128, r.IntN(40))
		for i := range poles {
			poles[i] = complex(randomBits(r), randomBits(r))
		}
		if got, want := string(keyPoles(nil, poles)), fmtPoles(poles); got != want {
			t.Fatalf("keyPoles\n got %q\nwant %q", got, want)
		}

		// Whole keys, with orders up to 9 so that long keys spill out of
		// the stack buffer.
		n := 1 + r.IntN(9)
		var c *mat.Matrix
		if r.IntN(2) == 0 {
			c = randomMatrix(r, 1+r.IntN(3), n)
		}
		plant := &lti.Continuous{Name: fmt.Sprintf("plant-%d", r.IntN(1000)),
			A: randomMatrix(r, n, n), B: randomMatrix(r, n, 1), C: c}
		h, d := randomBits(r), randomBits(r)
		want := "disc|" + plant.Name + "|" + fmtMatrix(plant.A) + fmtMatrix(plant.B) + fmtMatrix(plant.C) + fmtFloat(h) + fmtFloat(d)
		if got := discKey(plant, h, d); got != want {
			t.Fatalf("discKey\n got %q\nwant %q", got, want)
		}
		sys := &switching.System{A1: randomMatrix(r, n+1, n+1), A2: randomMatrix(r, n+1, n+1),
			X0: randomVec(r, n+1), Eth: randomBits(r), H: randomBits(r), NormDims: r.IntN(1<<20) - 1<<19}
		horizon := r.IntN(1<<30) - 1<<29
		want = "curve|" + fmtMatrix(sys.A1) + fmtMatrix(sys.A2) + fmtVec(sys.X0) + fmtFloat(sys.Eth) + fmtFloat(sys.H) +
			fmt.Sprintf("n%d;h%d", sys.NormDims, horizon)
		if got := curveKey(sys, horizon); got != want {
			t.Fatalf("curveKey\n got %q\nwant %q", got, want)
		}
		app := &Application{Plant: plant, H: h, DelayTT: d, DelayET: randomBits(r), Eth: randomBits(r),
			X0: randomVec(r, n), PolesTT: poles, PolesET: poles[:len(poles)/2]}
		if r.IntN(2) == 0 {
			app.QTT, app.RTT = randomMatrix(r, n+1, n+1), randomMatrix(r, 1, 1)
			app.QET, app.RET = randomMatrix(r, n+1, n+1), randomMatrix(r, 1, 1)
		}
		want = "app|" + plant.Name + "|" + fmtMatrix(plant.A) + fmtMatrix(plant.B) + fmtMatrix(plant.C) +
			fmtFloat(app.H) + fmtFloat(app.DelayTT) + fmtFloat(app.DelayET) + fmtFloat(app.Eth) + fmtVec(app.X0) +
			fmtPoles(app.PolesTT) + fmtPoles(app.PolesET) + fmtMatrix(app.QTT) + fmtMatrix(app.RTT) + fmtMatrix(app.QET) + fmtMatrix(app.RET)
		if got := app.CacheKey(); got != want {
			t.Fatalf("CacheKey\n got %q\nwant %q", got, want)
		}
	}
}
