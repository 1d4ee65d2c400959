package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzServiceCodec hammers the request/response codec — the buffered
// /v1/derive and /v1/allocate decoders and the NDJSON streaming decoder —
// with arbitrary bytes. The contract under fuzzing: decode and compile may
// reject input, but every rejection is a typed *RequestError and nothing
// panics (mat.FromRows panics on ragged input, so the codec must catch
// shape and finiteness problems first). Derivation itself is not run — the
// codec is the attack surface; the numeric kernels only ever see validated
// applications.
func FuzzServiceCodec(f *testing.F) {
	// Seed corpus: the shipped example payloads in both framings…
	for _, name := range []string{"derive.json", "derive.ndjson", "allocate.json", "fleets.ndjson"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "examples", "payloads", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// …plus adversarial shapes: ragged/empty matrices, mismatched x0,
	// out-of-range numbers, duplicate names, NDJSON with broken lines.
	for _, s := range []string{
		`{"apps":[{"name":"a","plant":{"a":[[1,2],[3]],"b":[[1],[1]]},"h":0.02}]}`,
		`{"apps":[{"name":"a","plant":{"a":[[0,1],[-2,-3]],"b":[[0]]},"h":0.02,"x0":[0]}]}`,
		`{"apps":[{"name":"a"},{"name":"a"}]}`,
		`{"apps":[{"name":"a","plant":{"a":[[1e308]],"b":[[1e308]]},"h":1e-308,"x0":[1e999]}]}`,
		`{"fleets":[{"policy":"race","apps":[{"name":"a","r":1,"deadline":2,"model":{"kind":"simple"}}]}]}`,
		"{\"name\":\"a\"}\n{broken\n\n{\"name\":\"b\",\"plant\":{\"a\":[[1]],\"b\":[[1]]}}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(err error, path string) {
			if err == nil {
				return
			}
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("%s: %v (type %T) is not a *RequestError", path, err, err)
			}
		}
		// Buffered derive path: decode, then compile every app (duplicate
		// names, matrix shapes, finiteness, core validation).
		var dreq DeriveRequest
		if err := decodeStrict(data, &dreq); err == nil {
			_, err := dreq.applications()
			check(err, "derive compile")
		}
		// Buffered allocate path: envelope normalisation plus per-fleet
		// model compilation (the allocation itself can be exponential for
		// policy "exact", so compiling is where fuzzing stops).
		var areq AllocateRequest
		if err := decodeStrict(data, &areq); err == nil {
			fleets, _, err := areq.FleetRequests()
			check(err, "allocate envelope")
			for i := range fleets {
				_, err := fleets[i].spec()
				check(err, "allocate compile")
			}
		}
		// NDJSON path: every line either compiles or carries a typed error;
		// bad lines never stop the scan, and the response codec must encode
		// whatever row comes out.
		var out bytes.Buffer
		for ln := range DecodeRequests(bytes.NewReader(data), 1<<16) {
			row := StreamRow{Index: ln.Index}
			if ln.Err != nil {
				check(ln.Err, "stream decode")
				row.Error = ln.Err.Error()
			} else if _, err := ln.Val.application(ln.Index); err != nil {
				check(err, "stream compile")
				row.Error = err.Error()
			}
			if err := EncodeResult(&out, row); err != nil {
				t.Fatalf("encoding row %d: %v", ln.Index, err)
			}
		}
		for ln := range DecodeLines[FleetRequest](bytes.NewReader(data), 1<<16) {
			if ln.Err != nil {
				check(ln.Err, "fleet stream decode")
				continue
			}
			_, err := ln.Val.spec()
			check(err, "fleet stream compile")
		}
	})
}

// FuzzPeerDeriveRow feeds arbitrary replica rows to the gateway's row
// check (peerDeriveRow). It must never panic, and a row it accepts has
// exactly one of Result and Error, carries the gateway's index, and
// re-encodes through EncodeResult to json.Marshal's bytes.
func FuzzPeerDeriveRow(f *testing.F) {
	for _, s := range []string{
		`{"index":3,"result":{"name":"S1","xiTT":0.5,"xiET":2.25,"xiM":0.75,"kp":1.5,"xiPrimeM":1e-7,"nonMonotonic":true,"model":{"kind":"non-monotonic","xiTT":0.5,"kp":1.5,"xiM":0.75,"xiET":2.25}}}`,
		`{"index":0,"result":{"name":"<&>é","xiTT":-0,"model":{"kind":"","xiM":-0}}}`,
		`{"index":0,"error":"switching: \"a\": closed loop is not Schur stable"}`,
		`{"index":1,"error":"context deadline exceeded","cancelled":true}`,
		`{"index":0}`,
		`{"index":0,"result":{},"error":"both"}`,
		`{"index":0,"result":null,"error":""}`,
		`{"index":"x","error":"e"}`,
		`{"index":-1,"error":"stream exceeded the 1s compute budget"}`,
		`{"index":0,"result":{"xiTT":1e400}}`,
		`not json`,
		``,
	} {
		f.Add([]byte(s), 7)
	}
	f.Fuzz(func(t *testing.T, raw []byte, index int) {
		row, ok := peerDeriveRow(raw, index)
		if !ok {
			return
		}
		if (row.Result == nil) == (row.Error == "") {
			t.Fatalf("%q: accepted row %+v has both or neither of result and error", raw, row)
		}
		if row.Index != index {
			t.Fatalf("%q: accepted row carries index %d, want %d", raw, row.Index, index)
		}
		var got bytes.Buffer
		if err := EncodeResult(&got, row); err != nil {
			t.Fatalf("%q: re-encoding %+v: %v", raw, row, err)
		}
		want, err := json.Marshal(row)
		if err != nil {
			t.Fatalf("%q: json.Marshal(%+v): %v", raw, row, err)
		}
		if !bytes.Equal(got.Bytes(), append(want, '\n')) {
			t.Fatalf("%q: EncodeResult %q, json.Marshal %q", raw, got.Bytes(), want)
		}
	})
}
