package switching_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"testing"

	"cpsdyn/internal/mat"
	"cpsdyn/internal/switching"
)

// certificatesGolden is testdata/fixture_certificates.json: for both loops
// of every fixture, the SHA-256 of each stored region's Float64bits (box,
// box2, V, U) and L in exact hexadecimal, recorded from the power search
// that formed its bookkeeping in a second pass over each power and the
// stop test that read box (a) before the sum of test (b). Never regenerate
// it from the code it checks.
const certificatesGolden = "testdata/fixture_certificates.json"

// certificateDigest renders one certificate for certificatesGolden.
func certificateDigest(c *switching.Certificate) map[string]string {
	sum := func(v []float64) string {
		b := binary.LittleEndian.AppendUint64(nil, uint64(len(v)))
		if v == nil {
			b = append(b, 'n')
		}
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	return map[string]string{
		"box": sum(c.Box), "box2": sum(c.Box2), "v": sum(c.V), "u": sum(c.Q),
		"l": strconv.FormatFloat(c.L, 'x', -1, 64),
	}
}

// fixtureCertificates digests the certificates of both loops of every
// fixture, by "<app> ET" and "<app> TT".
func fixtureCertificates(t *testing.T) map[string]map[string]string {
	out := map[string]map[string]string{}
	for _, d := range fixtureLoops(t) {
		for loop, a := range map[string]*mat.Matrix{"ET": d.Sys.A1, "TT": d.Sys.A2} {
			c := switching.CertificateOf(d.Sys, a, horizon)
			if c == nil {
				t.Fatalf("%s %s: no certificate", d.App.Name, loop)
			}
			out[d.App.Name+" "+loop] = certificateDigest(c)
		}
	}
	return out
}

// Every fixture certificate's regions and L are the ones the power search
// and stop test before the fused search found, bit for bit.
func TestFixtureCertificatesMatchGolden(t *testing.T) {
	raw, err := os.ReadFile(certificatesGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := fixtureCertificates(t)
	if len(got) != len(want) {
		t.Fatalf("%d fixture certificates, golden %d", len(got), len(want))
	}
	for k, g := range got {
		for field, v := range g {
			if want[k][field] != v {
				t.Fatalf("%s: %s differs from the golden", k, field)
			}
		}
	}
}

// The sum-first stop test gives the reference's boolean on every state of
// every fixture walk: the ET walk and every kwait's TT walk of each
// fixture curve, each to its stop. -short checks the 20 probe designs'
// curves and one §V app's.
func TestFixtureStopTestsMatchReference(t *testing.T) {
	total := 0
	for i, d := range fixtureLoops(t) {
		if testing.Short() && i >= 20 && d.App.Name != "C4" {
			continue
		}
		n, err := switching.CompareStopTests(d.Sys, horizon)
		if err != nil {
			t.Fatalf("%s: %v", d.App.Name, err)
		}
		total += n
	}
	t.Logf("%d states compared", total)
}
