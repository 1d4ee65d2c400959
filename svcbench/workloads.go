package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"cpsdyn/internal/sched"
	"cpsdyn/internal/service"
)

// coldFleet is one NDJSON stream to POST /v1/derive/stream on a service
// with an empty cache and an empty store: the CI gateway shape (300 apps
// over 20 probe designs) plus a few apps sharing the diesel design. Curve
// sampling is nearly all of it, and every miss fills memory and writes
// behind to disk.
func (b *bench) coldFleet() *workload {
	var specs []service.DeriveAppSpec
	var body, ref []byte
	var last []streamRow
	w := &workload{cold: true, setups: b.cfg.coldSetups, block: 1}
	w.inputs = func() {
		specs = coldFleetSpecs(b.rng(), b.cfg.probeApps, b.cfg.probeDesigns, b.cfg.dieselApps)
		body = ndjson(specs)
	}
	w.pass = func(e *env, bl *block) passResult {
		return b.streamPass(e, bl, "/v1/derive/stream", body, len(specs), &ref, &last)
	}
	w.check = func(e *env) { b.checkColdFleet(e, specs, last) }
	w.fleet = func() ([]service.AppSpec, error) { return fleetSpecs(specs, last, nil, nil) }
	w.layers = func(e *env, fleet []*sched.App) { b.directLayers(e, deriveInputs(specs, nil), fleet, nil) }
	return w
}

// designLoop is a designer's iteration on a fleet whose dynamics are
// already derived: re-derive the seeded fleet through the stream endpoint
// (every lookup a cache hit), allocate it with the policy race, and compare
// both replies byte for byte with the set-up's. No simulation runs in the
// measured phase.
func (b *bench) designLoop() *workload {
	var specs []service.DeriveAppSpec
	var rs, ds []float64
	var body, allocBody, refDerive, refAlloc []byte
	var rows []streamRow
	w := &workload{setups: b.cfg.loopSetups, block: b.cfg.loopBlock}
	w.inputs = func() {
		rng := b.rng()
		specs = loopFleetSpecs(rng, b.cfg.loopApps, b.cfg.loopDesigns)
		rs, ds = loopTimings(rng, len(specs))
		body = ndjson(specs)
	}
	// The set-up derives the fleet cold; that reply and the allocation of
	// its models are the references every iteration must reproduce.
	w.setup = func(e *env, bl *block) error {
		reply, status, _, err := bl.send(e, "/v1/derive/stream", body, kindMain)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("cold derivation: status %d: %v", status, err)
		}
		var failed int
		if rows, failed = parseRows(reply, len(specs)); failed > 0 {
			return fmt.Errorf("cold derivation: %d failed rows", failed)
		}
		refDerive = reply
		apps, err := fleetSpecs(specs, rows, rs, ds)
		if err != nil {
			return err
		}
		if allocBody, err = allocateBody(apps); err != nil {
			return err
		}
		reply, status, _, err = bl.send(e, "/v1/allocate", allocBody, kindAllocate)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("allocation: status %d: %v: %s", status, err, reply)
		}
		refAlloc = reply
		return nil
	}
	w.pass = func(e *env, bl *block) passResult {
		t0 := time.Now()
		dr, dst, _, derr := bl.send(e, "/v1/derive/stream", body, kindMain)
		ar, ast, _, aerr := bl.send(e, "/v1/allocate", allocBody, kindAllocate)
		res := passResult{dur: time.Since(t0), attempted: len(specs) + 1, rows: len(specs)}
		if derr != nil || dst != http.StatusOK || !bytes.Equal(dr, refDerive) {
			bad := diffRows(dr, refDerive, len(specs))
			b.fail("design-loop: derive reply differs from the set-up's in %d rows (status %d, %v)", bad, dst, derr)
			res.failed += bad
			res.rows -= bad
		}
		if aerr != nil || ast != http.StatusOK || !bytes.Equal(ar, refAlloc) {
			b.fail("design-loop: allocate reply differs from the set-up's (status %d, %v)", ast, aerr)
			res.failed++
		}
		return res
	}
	w.check = func(e *env) { b.checkDesignLoop(e, specs, rows, ds, refAlloc) }
	w.fleet = func() ([]service.AppSpec, error) { return fleetSpecs(specs, rows, rs, ds) }
	w.layers = func(e *env, fleet []*sched.App) { b.directLayers(e, deriveInputs(specs, nil), fleet, nil) }
	return w
}

// calibrate is one NDJSON stream of the six §V apps to
// POST /v1/calibrate/stream on a cold service: pure-mode probes with a
// 60 000-step horizon inside the speculative bisection, then slow designs'
// curves whose walks stay in the normal range.
func (b *bench) calibrate() *workload {
	var specs []service.CalibrateAppSpec
	var body, ref []byte
	var last []streamRow
	w := &workload{cold: true, setups: b.cfg.coldSetups, block: 1}
	w.inputs = func() {
		specs = calibrateSpecs(b.rng(), b.cfg.calibApps)
		body = ndjson(specs)
	}
	w.pass = func(e *env, bl *block) passResult {
		return b.streamPass(e, bl, "/v1/calibrate/stream", body, len(specs), &ref, &last)
	}
	w.check = func(e *env) { b.checkCalibrate(e, specs, last) }
	w.fleet = func() ([]service.AppSpec, error) {
		dspecs, _ := calibratedInputs(specs, last)
		return fleetSpecs(dspecs, last, nil, nil)
	}
	w.layers = func(e *env, fleet []*sched.App) {
		dspecs, poles := calibratedInputs(specs, last)
		b.directLayers(e, deriveInputs(dspecs, poles), fleet, specs)
	}
	return w
}

// streamPass sends one stream request and accounts its rows. Every pass of
// a cold workload must reproduce the first pass's reply byte for byte.
func (b *bench) streamPass(e *env, bl *block, path string, body []byte, n int, ref *[]byte, last *[]streamRow) passResult {
	reply, status, d, err := bl.send(e, path, body, kindMain)
	res := passResult{dur: d, attempted: n}
	if err != nil || status != http.StatusOK {
		b.fail("%s: status %d: %v", path, status, err)
		res.failed = n
		return res
	}
	rows, failed := parseRows(reply, n)
	if failed > 0 {
		b.fail("%s: %d failed rows", path, failed)
	}
	switch {
	case *ref == nil && failed == 0:
		*ref = reply
	case *ref != nil && !bytes.Equal(reply, *ref):
		bad := diffRows(reply, *ref, n)
		b.fail("%s: reply differs from the first pass's in %d rows", path, bad)
		failed = max(failed, bad)
	}
	res.failed = failed
	res.rows = n - failed
	*last = rows
	return res
}

// diffRows counts the rows of got that differ from want (all n when got
// does not parse as the same number of lines).
func diffRows(got, want []byte, n int) int {
	g := bytes.Split(bytes.TrimSpace(got), []byte("\n"))
	w := bytes.Split(bytes.TrimSpace(want), []byte("\n"))
	if len(g) != len(w) {
		return n
	}
	bad := 0
	for i := range g {
		if !bytes.Equal(g[i], w[i]) {
			bad++
		}
	}
	return bad
}
