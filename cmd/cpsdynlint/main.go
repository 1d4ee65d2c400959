// Command cpsdynlint is the multichecker for the repo's project
// invariants: it loads the packages named on the command line (./... by
// default), runs the internal/analysis suite over them and prints one
// go-vet-style line per finding. A non-empty finding set exits 1, which is
// what makes the CI job a blocking correctness gate.
//
// Each analyzer is scoped to the packages whose invariant it guards:
//
//	ctxflow      library packages under internal/ (context must flow end to end)
//	allocfree    everywhere — it fires only inside //cpsdyn:allocfree functions
//	determinism  the kernel packages: internal/mat, switching, lti, sim, pwl
//	lockguard    internal/ and cmd/ — mutexes released on all paths, never
//	             held across blocking operations
//	goroleak     internal/ — every go statement joins or watches ctx.Done()
//	atomicmix    everywhere — atomically-accessed fields never read plainly
//
// Flags: -list prints the registered analyzers; -json emits one finding
// per line as {"file","line","analyzer","message"} for CI annotation;
// -timing prints per-analyzer wall time to stderr.
//
// See internal/analysis/README.md for the annotation grammar and how to
// add an analyzer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"cpsdyn/internal/analysis"
	"cpsdyn/internal/analysis/allocfree"
	"cpsdyn/internal/analysis/atomicmix"
	"cpsdyn/internal/analysis/ctxflow"
	"cpsdyn/internal/analysis/determinism"
	"cpsdyn/internal/analysis/goroleak"
	"cpsdyn/internal/analysis/lockguard"
)

// kernelPkgs are the packages whose output must stay byte-deterministic at
// any worker count (ROADMAP: deterministic derivation is what makes the
// cache, the streaming diff-tests and the cluster sharding safe).
var kernelPkgs = map[string]bool{
	"cpsdyn/internal/mat":       true,
	"cpsdyn/internal/switching": true,
	"cpsdyn/internal/lti":       true,
	"cpsdyn/internal/sim":       true,
	"cpsdyn/internal/pwl":       true,
}

// checks pairs every analyzer with the package set it applies to.
var checks = []struct {
	analyzer *analysis.Analyzer
	applies  func(pkgPath string) bool
}{
	{ctxflow.Analyzer, func(p string) bool {
		return strings.Contains(p, "/internal/") && !strings.Contains(p, "/internal/analysis")
	}},
	{allocfree.Analyzer, func(string) bool { return true }},
	{determinism.Analyzer, func(p string) bool { return kernelPkgs[p] }},
	{lockguard.Analyzer, func(p string) bool {
		return strings.Contains(p, "/internal/") || strings.Contains(p, "/cmd/")
	}},
	{goroleak.Analyzer, func(p string) bool {
		return strings.HasPrefix(p, "cpsdyn/internal/")
	}},
	{atomicmix.Analyzer, func(string) bool { return true }},
}

// A finding is one diagnostic in a form both output modes can render.
type finding struct {
	pos      string // file:line:col, for the vet-style mode and sorting
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// run is the testable entry point: 0 clean, 1 findings, 2 usage or
// analyzer error.
func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("cpsdynlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listFlag := fs.Bool("list", false, "print the registered analyzers and exit")
	jsonFlag := fs.Bool("json", false, "emit one JSON object per finding instead of vet-style lines")
	timingFlag := fs.Bool("timing", false, "print per-analyzer wall time to stderr")
	fs.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: cpsdynlint [-list] [-json] [-timing] [packages]\n\nRuns the cpsdyn invariant analyzers over the named packages (default\n./...) and exits 1 on any finding.\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listFlag {
		for _, c := range checks {
			fmt.Fprintf(stdout, "%-12s %s\n", c.analyzer.Name, c.analyzer.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "cpsdynlint:", err)
		return 2
	}
	var findings []finding
	elapsed := make(map[string]time.Duration)
	for _, pkg := range pkgs {
		for _, c := range checks {
			if !c.applies(pkg.PkgPath) {
				continue
			}
			start := time.Now()
			diags, err := pkg.Run(c.analyzer)
			elapsed[c.analyzer.Name] += time.Since(start)
			if err != nil {
				fmt.Fprintln(stderr, "cpsdynlint:", err)
				return 2
			}
			for _, d := range diags {
				p := pkg.Fset.Position(d.Pos)
				findings = append(findings, finding{
					pos:      p.String(),
					File:     p.Filename,
					Line:     p.Line,
					Analyzer: c.analyzer.Name,
					Message:  d.Message,
				})
			}
		}
	}
	if *timingFlag {
		for _, c := range checks {
			fmt.Fprintf(stderr, "cpsdynlint: %-12s %8.1fms\n",
				c.analyzer.Name, float64(elapsed[c.analyzer.Name].Microseconds())/1000)
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	if *jsonFlag {
		enc := json.NewEncoder(stdout)
		for _, f := range findings {
			if err := enc.Encode(f); err != nil {
				fmt.Fprintln(stderr, "cpsdynlint:", err)
				return 2
			}
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s: %s [%s]\n", f.pos, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "cpsdynlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
