package store

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"cpsdyn/internal/core"
	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
)

// goldenRecord is one entry of testdata/records_golden.json: the key a
// record is addressed by and the record's bytes in hex.
type goldenRecord struct {
	Key string `json:"key"`
	Hex string `json:"hex"`
}

// dieselApp is the 6-state diesel engine the store benchmarks write: an
// order-7 loop, whose curve record is about 2.7 kB.
func dieselApp() *core.Application {
	return &core.Application{
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
}

// goldenArtefacts returns the artefacts of testdata/records_golden.json by
// key: the diesel curve and the diesel plant's TT discretisation.
func goldenArtefacts(t *testing.T) map[string]any {
	t.Helper()
	d, err := dieselApp().DeriveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]any{"golden|diesel-curve": d.Curve, "golden|diesel-disc-tt": d.DiscTT}
}

// The records of the diesel curve and of one discretisation are the bytes
// testdata/records_golden.json holds, recorded from the encoder that grew
// the payload by appends and copied it behind the header (never
// regenerate it from the code it checks), and each encode allocates once.
func TestEncodeRecordMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/records_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []goldenRecord
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	arts := goldenArtefacts(t)
	if len(golden) != len(arts) {
		t.Fatalf("golden has %d records, want %d", len(golden), len(arts))
	}
	for _, g := range golden {
		v, ok := arts[g.Key]
		if !ok {
			t.Fatalf("golden key %q names no artefact", g.Key)
		}
		h := keyHash(g.Key)
		rec, err := encodeRecord(h, v)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(rec); got != g.Hex {
			t.Fatalf("%s: record differs from the golden (%d bytes, golden %d)", g.Key, len(rec), len(g.Hex)/2)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := encodeRecord(h, v); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Fatalf("%s: encodeRecord allocates %g times, want 1", g.Key, allocs)
		}
	}
}
