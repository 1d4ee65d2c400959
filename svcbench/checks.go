package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"cpsdyn/internal/core"
	"cpsdyn/internal/service"
	"cpsdyn/internal/switching"
)

// goldenJSON holds the committed output digests. "<workload>" is the digest of
// the workload's result rows with names stripped, sorted: the seed only
// renames and reorders rows, so it holds for every seed. "design-loop
// allocate" is the allocation reply at defaultSeed, whose seeded r and
// deadlines change the reply itself.
//
//go:embed golden.json
var goldenJSON []byte

// sampleHorizon is the settling horizon core.Derive samples curves with.
const sampleHorizon = 20000

// checkKdw compares, for every distinct derivation, the dwell the sampled
// curve records at a few seeded kwaits with an independent single walk
// (switching.System.DwellSteps). The cache is warm, so the curves are the
// ones the service sampled.
func (b *bench) checkKdw(inputs []deriveInput) {
	rng := b.checkRNG()
	for _, app := range distinct(inputs) {
		var d *core.Derived
		var err error
		b.timed("core.DeriveContext check", nil, func() { d, err = app.DeriveContext(b.ctx) })
		if err != nil {
			b.fail("kdw check: %s: %v", app.Name, err)
			continue
		}
		kET := len(d.Curve.Samples) - 1
		for probe := 0; probe < 3 && kET > 0; probe++ {
			kw := rng.IntN(kET)
			var steps int
			var ok bool
			b.timed("switching.System.DwellSteps", nil, func() { steps, ok = d.Sys.DwellSteps(kw, sampleHorizon) })
			if want := d.Curve.Samples[kw].Dwell; !ok || float64(steps)*d.Sys.H != want {
				b.fail("kdw check: %s: kwait %d: curve says %g s, DwellSteps says %d steps (settled %v)",
					app.Name, kw, want, steps, ok)
			}
		}
	}
}

// digest hashes result rows with the app names stripped (by strip), in
// sorted order.
func digest(rows []streamRow, strip func(json.RawMessage) ([]byte, error)) (string, error) {
	lines := make([]string, len(rows))
	for i, r := range rows {
		line, err := strip(r.Result)
		if err != nil {
			return "", err
		}
		lines[i] = string(line)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func stripDerive(raw json.RawMessage) ([]byte, error) {
	var r service.DeriveResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, err
	}
	r.Name = ""
	return json.Marshal(&r)
}

func stripCalibrate(raw json.RawMessage) ([]byte, error) {
	var r service.CalibrateResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, err
	}
	r.Name = ""
	return json.Marshal(&r)
}

// checkGolden compares a digest with the committed one.
func (b *bench) checkGolden(key, got string) {
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		b.fail("golden.json: %v", err)
		return
	}
	fmt.Fprintf(b.out, "digest %q %s\n", key, got)
	if want, ok := golden[key]; !ok || want != got {
		b.fail("output digest %q is %s, golden.json has %q", key, got, want)
	}
}

// sized reports whether the run uses the full workload sizes, which the
// golden digests were recorded at.
func (b *bench) sized() bool { return b.cfg.sizes == defaultSizes() }

func (b *bench) checkRows(key string, rows []streamRow, strip func(json.RawMessage) ([]byte, error)) {
	got, err := digest(rows, strip)
	if err != nil {
		b.fail("%s rows: %v", key, err)
		return
	}
	if b.sized() {
		b.checkGolden(key, got)
	}
}

// checkColdFleet: the stream rows must equal a buffered /v1/derive of the
// same apps (as CI's jq diff checks), every curve must agree with
// independent walks, and the rows must match the golden digest.
func (b *bench) checkColdFleet(e *env, specs []service.DeriveAppSpec, rows []streamRow) {
	if len(rows) != len(specs) {
		return // already counted as failed rows
	}
	body, err := json.Marshal(&service.DeriveRequest{Apps: specs})
	if err != nil {
		b.fail("buffered request: %v", err)
		return
	}
	b.attempted++
	var reply []byte
	var status int
	b.timed("POST /v1/derive check", nil, func() { reply, status, err = e.post("/v1/derive", body, "") })
	var buffered struct{ Apps []json.RawMessage }
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(reply, &buffered)
	}
	if err != nil || status != http.StatusOK || len(buffered.Apps) != len(rows) {
		b.fail("buffered /v1/derive: status %d, %d apps: %v", status, len(buffered.Apps), err)
		b.failed++
	} else {
		bad := 0
		for i, app := range buffered.Apps {
			var want bytes.Buffer
			if json.Compact(&want, app) != nil || !bytes.Equal(want.Bytes(), rows[i].Result) {
				bad++
			}
		}
		if bad > 0 {
			b.fail("buffered /v1/derive differs from the stream in %d rows", bad)
			b.failed++
		}
	}
	inputs := deriveInputs(specs, nil)
	b.checkKdw(inputs)
	b.checkRows("cold-fleet", rows, stripDerive)
}

// checkDesignLoop: every app must fit a slot alone (its deadline is at
// least its ξTT), the set-up's allocation must place every app
// schedulably, the curves must agree with independent walks, and the rows
// and (at the default seed) the allocation must match the golden digests.
func (b *bench) checkDesignLoop(e *env, specs []service.DeriveAppSpec, rows []streamRow, ds []float64, alloc []byte) {
	for i, r := range rows {
		var res service.DeriveResult
		if err := json.Unmarshal(r.Result, &res); err != nil || ds[i] < res.XiTT {
			b.fail("design-loop: app %s: deadline %g below ξTT %g (%v)", specs[i].Name, ds[i], res.XiTT, err)
		}
	}
	var fr service.FleetResult
	if err := json.Unmarshal(alloc, &fr); err != nil || fr.Error != "" || len(fr.Apps) != len(specs) {
		b.fail("design-loop: allocation: %q (%v)", fr.Error, err)
	}
	for _, a := range fr.Apps {
		if !a.Schedulable {
			b.fail("design-loop: app %s unschedulable in slot %d", a.Name, a.Slot)
		}
	}
	b.checkKdw(deriveInputs(specs, nil))
	b.checkRows("design-loop", rows, stripDerive)
	if b.sized() && b.cfg.seed == defaultSeed {
		sum := sha256.Sum256(alloc)
		b.checkGolden("design-loop allocate", hex.EncodeToString(sum[:]))
	}
}

// checkCalibrate: calibrated ξTT and ξET must land within max(h, 5%) of
// their targets, the curves must agree with independent walks, and the rows
// must match the golden digest.
func (b *bench) checkCalibrate(e *env, specs []service.CalibrateAppSpec, rows []streamRow) {
	if len(rows) != len(specs) {
		return
	}
	for i, r := range rows {
		var res service.CalibrateResult
		if err := json.Unmarshal(r.Result, &res); err != nil {
			b.fail("calibrate row %d: %v", i, err)
			continue
		}
		s := specs[i]
		for _, c := range []struct {
			what      string
			got, want float64
		}{{"ξTT", res.XiTT, s.TargetXiTT}, {"ξET", res.XiET, s.TargetXiET}} {
			if math.Abs(c.got-c.want) > math.Max(s.H, 0.05*c.want) {
				b.fail("calibrate: %s: %s = %g, target %g", s.Name, c.what, c.got, c.want)
			}
		}
	}
	dspecs, poles := calibratedInputs(specs, rows)
	b.checkKdw(deriveInputs(dspecs, poles))
	b.checkRows("calibrate", rows, stripCalibrate)
}

// sameCurve reports whether two sampled curves are bit-identical.
func sameCurve(a, b *switching.Curve) bool {
	if a == nil || b == nil || len(a.Samples) != len(b.Samples) ||
		math.Float64bits(a.XiTT) != math.Float64bits(b.XiTT) ||
		math.Float64bits(a.XiET) != math.Float64bits(b.XiET) {
		return false
	}
	for i := range a.Samples {
		if math.Float64bits(a.Samples[i].Wait) != math.Float64bits(b.Samples[i].Wait) ||
			math.Float64bits(a.Samples[i].Dwell) != math.Float64bits(b.Samples[i].Dwell) {
			return false
		}
	}
	return true
}
