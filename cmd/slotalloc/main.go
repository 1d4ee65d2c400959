// Command slotalloc reads one or many fleet descriptions from JSON and
// computes the minimum TT-slot allocation with the paper's schedulability
// analysis — the practical front door for using this library on your own
// timing data (e.g. parameters measured on a real ECU network). It shares
// its request codec with the cpsdynd service's POST /v1/allocate endpoint.
//
// Single-fleet input (times in seconds):
//
//	{
//	  "policy": "first-fit",          // first-fit | sequential | best-fit | exact | race
//	  "method": "closed-form",        // closed-form | fixed-point
//	  "apps": [
//	    {
//	      "name": "C3", "r": 15, "deadline": 2,
//	      "model": {"kind": "non-monotonic",
//	                "xiTT": 0.39, "kp": 0.69, "xiM": 0.64, "xiET": 3.97}
//	    }, ...
//	  ]
//	}
//
// Batch input wraps any number of such fleets (each with its own policy
// and method) in a "fleets" array; they are allocated concurrently across
// a worker pool and reported in input order:
//
//	{"fleets": [
//	  {"name": "variant-A", "policy": "race", "apps": [...]},
//	  {"name": "variant-B", "policy": "exact", "apps": [...]}
//	]}
//
// Model kinds: "non-monotonic" (ξTT, kp, ξM, ξET), "conservative"
// (kp, ξM, ξET) and "simple" (ξTT, ξET; UNSAFE — allowed for comparison,
// flagged in the output).
//
// Policy "race" runs first-fit, sequential and best-fit concurrently and
// keeps the feasible allocation with the fewest slots; the output's policy
// field names the winning heuristic. Per-app results are always emitted in
// input order (not slot order), so outputs diff cleanly across policies.
//
// In a batch, one infeasible fleet does not abort the others: its result
// carries an "error" field and the exit status is 1 after all fleets are
// reported.
//
// With -stream the input is NDJSON instead — one fleet request per line —
// and results are emitted as NDJSON rows ({"index": N, "fleet": {...}}) the
// moment each allocation completes, in input order, so arbitrarily long
// fleet lists stream through O(workers) memory. A malformed line becomes an
// error row ({"index": N, "error": "..."}) and never aborts the stream. The
// codec is exactly the cpsdynd streaming codec, so rows pipe between the
// two tools.
//
// Usage: slotalloc [-json] [-stream] fleet.json   (or "-" for stdin)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"cpsdyn/internal/service"
	"cpsdyn/internal/textplot"
)

// batchOutput is the run outcome: the per-fleet results plus whether the
// input used the single-fleet form (which keeps the original single-object
// output shape).
type batchOutput struct {
	Fleets []*service.FleetResult `json:"fleets"`
	single bool
}

func main() {
	asJSON := flag.Bool("json", false, "emit machine-readable JSON")
	workers := flag.Int("workers", 0, "batch allocation worker pool (0 = GOMAXPROCS)")
	stream := flag.Bool("stream", false, "NDJSON mode: one fleet request per input line, one result row per output line")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: slotalloc [-json] [-stream] [-workers N] fleet.json")
		os.Exit(2)
	}
	var r io.Reader
	if flag.Arg(0) == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	if *stream {
		os.Exit(runStream(r, os.Stdout, *workers))
	}
	out, err := run(r, *workers)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		var v any = out
		if out.single {
			v = out.Fleets[0]
		}
		if err := enc.Encode(v); err != nil {
			fatal(err)
		}
	} else if err := render(os.Stdout, out); err != nil {
		fatal(err)
	}
	for _, fr := range out.Fleets {
		if fr.Error != "" {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slotalloc:", err)
	os.Exit(1)
}

// runStream allocates NDJSON fleet lines through the shared streaming codec
// and reports the exit status: 1 when any row carried an error (malformed
// line or infeasible fleet), matching the batch mode's convention.
func runStream(r io.Reader, w io.Writer, workers int) int {
	status := 0
	_, err := service.AllocateStream(context.Background(), r,
		statusWriter{w: w, status: &status},
		service.StreamOptions{Workers: workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "slotalloc:", err)
		return 1
	}
	return status
}

// statusWriter watches the emitted rows for in-band errors so runStream can
// exit non-zero without buffering the stream.
type statusWriter struct {
	w      io.Writer
	status *int
}

func (sw statusWriter) Write(p []byte) (int, error) {
	var row service.FleetStreamRow
	if err := json.Unmarshal(p, &row); err == nil {
		if row.Error != "" || (row.Fleet != nil && row.Fleet.Error != "") {
			*sw.status = 1
		}
	}
	return sw.w.Write(p)
}

// run parses one fleet or a batch, allocates concurrently across workers
// (≤ 0 selects GOMAXPROCS) and analyses every fleet, reporting apps in
// input order.
func run(r io.Reader, workers int) (*batchOutput, error) {
	var req service.AllocateRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("parsing input: %w", err)
	}
	fleets, single, err := req.FleetRequests()
	if err != nil {
		return nil, err
	}
	results, err := service.AllocateFleets(context.Background(), fleets, workers)
	if err != nil {
		return nil, err
	}
	if single && results[0].Error != "" {
		return nil, fmt.Errorf("%s", results[0].Error)
	}
	return &batchOutput{Fleets: results, single: single}, nil
}

func render(w io.Writer, out *batchOutput) error {
	for i, fr := range out.Fleets {
		if !out.single {
			name := fr.Name
			if name == "" {
				name = fmt.Sprintf("#%d", i+1)
			}
			if i > 0 {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "fleet %s\n", name)
		}
		if fr.Error != "" {
			fmt.Fprintf(w, "ERROR: %s\n", fr.Error)
			continue
		}
		if err := renderFleet(w, fr); err != nil {
			return err
		}
	}
	return nil
}

func renderFleet(w io.Writer, fr *service.FleetResult) error {
	fmt.Fprintf(w, "slots: %d  (policy %s, method %s)\n", fr.Slots, fr.Policy, fr.Method)
	if fr.Unsafe {
		fmt.Fprintln(w, "WARNING: input uses the simple monotonic model, which can under-estimate response times")
	}
	rows := make([][]string, 0, len(fr.Apps))
	for _, a := range fr.Apps {
		rows = append(rows, []string{
			a.Name,
			fmt.Sprintf("%d", a.Slot),
			fmt.Sprintf("%.3f", a.MaxWait),
			fmt.Sprintf("%.3f", a.WCRT),
			fmt.Sprintf("%.3f", a.Deadline),
			fmt.Sprintf("%v", a.Schedulable),
		})
	}
	return textplot.Table(w, []string{"app", "slot", "k̂wait", "ξ̂", "ξd", "ok"}, rows)
}
