// Command cpsrepro regenerates every table and figure of the paper
// "Exploiting System Dynamics for Resource-Efficient Automotive CPS Design"
// (DATE 2019) from this repository's implementation.
//
// Usage:
//
//	cpsrepro walkthrough        §V quoted values (paper mode)
//	cpsrepro casestudy          slot counts: non-monotonic vs conservative
//	cpsrepro table1             Table I: paper vs measured fleet
//	cpsrepro fig3  [-csv]       servo dwell/wait curve (Fig. 3)
//	cpsrepro fig4  [-csv]       the three dwell models on the servo (Fig. 4)
//	cpsrepro fig5  [-csv]       six-app FlexRay co-simulation traces (Fig. 5)
//	cpsrepro sweep-kp           ablation: slot gap vs dwell-peak position
//	cpsrepro random             ablation: random synthetic workloads
//	cpsrepro methods            ablation: closed form vs fixed point
//	cpsrepro race               policy race: best allocation across heuristics
//	cpsrepro derive [-stream] f derive your own fleet from a JSON file or "-"
//	                            (stdin); with -stream, NDJSON in/out through
//	                            the cpsdynd streaming codec
//	cpsrepro bench-export       run the kernel benchmark suite hermetically
//	                            and emit a JSON report (-out, -count)
//	cpsrepro bench-compare      diff two bench-export reports; nonzero exit
//	                            on a >threshold geomean ns/op regression or
//	                            any allocs/op increase
//	cpsrepro all                everything except the CSV dumps
//
// Every command accepts -workers N to bound the dwell-curve sampling
// fan-out on derivation-cache misses (0, the default, uses every core;
// 1 forces the sequential sampler).
//
// The derive command is the offline twin of cpsdynd's derive endpoints: the
// buffered form reads one service.DeriveRequest JSON document and prints a
// Table-I-style table; the -stream form reads one DeriveAppSpec per NDJSON
// line and emits one result row per line as each derivation completes, in
// input order, with O(workers) buffering — malformed lines become error
// rows instead of aborting the stream.
//
// The measured-mode commands (table1, fig5) share one calibrated fleet per
// process: the six controller calibrations run concurrently and the
// derived artefacts are reused, so "all" calibrates once instead
// of three times.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"cpsdyn/internal/casestudy"
	"cpsdyn/internal/core"
	"cpsdyn/internal/pwl"
	"cpsdyn/internal/sched"
	"cpsdyn/internal/service"
	"cpsdyn/internal/textplot"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	// The bench subcommands own their flags (-out/-count/-threshold), so
	// they parse os.Args directly instead of the shared reproduction flags.
	switch cmd {
	case "bench-export", "bench-compare":
		run := runBenchExport
		if cmd == "bench-compare" {
			run = runBenchCompare
		}
		if err := run(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "cpsrepro:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit CSV instead of an ASCII plot")
	workers := fs.Int("workers", 0, "dwell-curve sampling fan-out on cache misses (0 = GOMAXPROCS, 1 = sequential)")
	stream := fs.Bool("stream", false, "derive: NDJSON mode (one app per input line, one row per output line)")
	_ = fs.Parse(os.Args[2:])
	core.SetCurveSamplingWorkers(*workers)

	var err error
	switch cmd {
	case "derive":
		err = runDerive(fs.Args(), *stream, *workers)
	case "walkthrough":
		err = runWalkthrough()
	case "casestudy":
		err = runCaseStudy()
	case "table1":
		err = runTable1()
	case "fig3":
		err = runFig3(*csv)
	case "fig4":
		err = runFig4(*csv)
	case "fig5":
		err = runFig5(*csv)
	case "sweep-kp":
		err = runSweepKp()
	case "segments":
		err = runSegments()
	case "random":
		err = runRandom()
	case "methods":
		err = runMethods()
	case "race":
		err = runRace()
	case "all":
		for _, f := range []func() error{
			runWalkthrough, runCaseStudy, runTable1,
			func() error { return runFig3(false) },
			func() error { return runFig4(false) },
			func() error { return runFig5(false) },
			runSweepKp, runSegments, runRandom, runMethods, runRace,
		} {
			if err = f(); err != nil {
				break
			}
			fmt.Println()
		}
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpsrepro:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cpsrepro <command> [-csv] [-workers N]
       cpsrepro derive [-stream] [-workers N] fleet.json|-
       cpsrepro bench-export [-out file] [-count N]
       cpsrepro bench-compare [-threshold f] old.json new.json

commands: walkthrough casestudy table1 fig3 fig4 fig5 sweep-kp segments random methods race derive bench-export bench-compare all`)
}

// runDerive derives a user-supplied fleet offline through the service codec:
// buffered (one DeriveRequest document → a Table-I-style table) or streamed
// (-stream: DeriveAppSpec NDJSON lines → result rows in input order, flushed
// as each derivation completes).
func runDerive(args []string, stream bool, workers int) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: cpsrepro derive [-stream] [-workers N] fleet.json|-")
	}
	var r io.Reader
	if args[0] == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	if stream {
		stats, err := service.DeriveStream(context.Background(), r, os.Stdout,
			service.StreamOptions{Workers: workers})
		if err != nil {
			return fmt.Errorf("after %d rows: %w", stats.RowsOut, err)
		}
		return nil
	}
	var req service.DeriveRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return fmt.Errorf("parsing input: %w", err)
	}
	if req.Workers == 0 {
		req.Workers = workers
	}
	resp, err := service.Derive(context.Background(), &req)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(resp.Apps))
	for _, a := range resp.Apps {
		rows = append(rows, []string{
			a.Name,
			fmt.Sprintf("%.3f", a.XiTT),
			fmt.Sprintf("%.3f", a.XiET),
			fmt.Sprintf("%.3f", a.XiM),
			fmt.Sprintf("%.3f", a.Kp),
			fmt.Sprintf("%.3f", a.XiPrimeM),
			fmt.Sprintf("%v", a.NonMonotonic),
		})
	}
	return textplot.Table(os.Stdout, []string{"app", "ξTT", "ξET", "ξM", "kp", "ξ′M", "non-mono"}, rows)
}

func runWalkthrough() error {
	vals, err := casestudy.Walkthrough()
	if err != nil {
		return err
	}
	fmt.Println("== §V walk-through (paper mode: Table I inputs) ==")
	rows := make([][]string, 0, len(vals))
	for _, v := range vals {
		rows = append(rows, []string{v.Label, fmt.Sprintf("%.3f", v.Got), fmt.Sprintf("%.3f", v.Paper)})
	}
	return textplot.Table(os.Stdout, []string{"quantity", "computed", "paper"}, rows)
}

func runCaseStudy() error {
	fmt.Println("== §V slot allocation (paper mode) ==")
	c, err := casestudy.ComparePaperSlotCounts(sched.FirstFit, sched.ClosedForm)
	if err != nil {
		return err
	}
	fmt.Printf("non-monotonic model: %d TT slots\n", c.NonMonotonicSlots)
	fmt.Printf("conservative model:  %d TT slots (+%.0f%%)\n", c.ConservativeSlots, c.ExtraPercent)
	al, err := casestudy.PaperAllocation(core.NonMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		return err
	}
	for s, group := range al.Slots {
		fmt.Printf("  slot %d:", s+1)
		for _, a := range group {
			fmt.Printf(" %s", a.Name)
		}
		fmt.Println()
	}
	return nil
}

func runTable1() error {
	fmt.Println("== Table I: paper vs measured fleet (concurrent controller calibration) ==")
	cmp, err := casestudy.RunTable1()
	if err != nil {
		return err
	}
	header := []string{"app", "r", "ξd", "ξTT (paper)", "ξET (paper)", "ξM (paper)", "kp (paper)", "ξ′M (paper)"}
	rows := make([][]string, 0, len(cmp.Measured))
	for i, m := range cmp.Measured {
		p := cmp.Paper[i]
		rows = append(rows, []string{
			m.Name,
			fmt.Sprintf("%.0f", m.R),
			fmt.Sprintf("%.2f", m.Deadline),
			fmt.Sprintf("%.2f (%.2f)", m.XiTT, p.XiTT),
			fmt.Sprintf("%.2f (%.2f)", m.XiET, p.XiET),
			fmt.Sprintf("%.2f (%.2f)", m.XiM, p.XiM),
			fmt.Sprintf("%.2f (%.2f)", m.Kp, p.Kp),
			fmt.Sprintf("%.2f (%.2f)", m.XiPrimeM, p.XiPrimeM),
		})
	}
	return textplot.Table(os.Stdout, header, rows)
}

func runFig3(csv bool) error {
	r, err := casestudy.RunFig3()
	if err != nil {
		return err
	}
	xs := make([]float64, len(r.Curve.Samples))
	ys := make([]float64, len(r.Curve.Samples))
	for i, s := range r.Curve.Samples {
		xs[i], ys[i] = s.Wait, s.Dwell
	}
	series := []textplot.Series{{Name: "kdw(kwait) [s]", X: xs, Y: ys}}
	if csv {
		return textplot.WriteCSV(os.Stdout, series)
	}
	fmt.Printf("== Fig. 3: servo dwell vs wait (ξTT=%.2f s, ξET=%.2f s; paper: 0.68, 2.16) ==\n",
		r.Curve.XiTT, r.Curve.XiET)
	return textplot.Plot(os.Stdout, "dwell time vs wait time", series, 72, 18)
}

func runFig4(csv bool) error {
	r, err := casestudy.RunFig4()
	if err != nil {
		return err
	}
	sample := func(m *pwl.Model) textplot.Series {
		var xs, ys []float64
		for w := 0.0; w <= r.Curve.XiET; w += r.Curve.XiET / 100 {
			xs = append(xs, w)
			ys = append(ys, m.Dwell(w))
		}
		return textplot.Series{Name: m.Kind, X: xs, Y: ys}
	}
	var mx, my []float64
	for _, s := range r.Curve.Samples {
		mx = append(mx, s.Wait)
		my = append(my, s.Dwell)
	}
	series := []textplot.Series{
		{Name: "measured", X: mx, Y: my},
		sample(r.NonMonotonic),
		sample(r.Conservative),
		sample(r.Simple),
	}
	if csv {
		return textplot.WriteCSV(os.Stdout, series)
	}
	fmt.Println("== Fig. 4: dwell models on the servo ==")
	return textplot.Plot(os.Stdout, "dwell models", series, 72, 18)
}

func runFig5(csv bool) error {
	fmt.Println("== Fig. 5: six-app co-simulation (shared calibrated fleet + event simulation) ==")
	r, err := casestudy.RunFig5()
	if err != nil {
		return err
	}
	var series []textplot.Series
	for _, d := range r.Fleet {
		ar := r.Sim.Apps[d.App.Name]
		var xs, ys []float64
		for _, p := range ar.Trace {
			xs = append(xs, float64(p.Time)/1e9)
			ys = append(ys, p.Norm)
		}
		series = append(series, textplot.Series{Name: "‖x‖ " + d.App.Name, X: xs, Y: ys})
	}
	if csv {
		return textplot.WriteCSV(os.Stdout, series)
	}
	for s, group := range r.Allocation.Slots {
		fmt.Printf("slot %d:", s+1)
		for _, a := range group {
			fmt.Printf(" %s", a.Name)
		}
		fmt.Println()
	}
	for _, d := range r.Fleet {
		ar := r.Sim.Apps[d.App.Name]
		fmt.Printf("%s: response %.2f s (deadline %.2f s) met=%v\n",
			d.App.Name, float64(ar.ResponseTimes[0])/1e9, d.App.Deadline, ar.DeadlineMet)
	}
	// One compact plot per application, like the paper's six panels.
	for _, s := range series {
		if err := textplot.Plot(os.Stdout, s.Name, []textplot.Series{s}, 72, 10); err != nil {
			return err
		}
	}
	return nil
}

func runSweepKp() error {
	fmt.Println("== Ablation: slot counts vs dwell-peak position kp ==")
	pts, err := casestudy.SweepKp([]float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2}, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f·kp", p.Fraction),
			fmt.Sprintf("%d", p.NonMonotonicSlots),
			fmt.Sprintf("%d", p.ConservativeSlots),
		})
	}
	return textplot.Table(os.Stdout, []string{"peak position", "non-monotonic slots", "conservative slots"}, rows)
}

func runSegments() error {
	fmt.Println("== Ablation: k-segment hull models on the servo curve (§III \"three or more\") ==")
	pts, err := casestudy.SweepSegments([]int{2, 3, 4, 6, 8})
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Segments),
			fmt.Sprintf("%.3f", p.Area),
			fmt.Sprintf("%.3f", p.PeakDwell),
			fmt.Sprintf("%v", p.Dominates),
		})
	}
	return textplot.Table(os.Stdout, []string{"segments", "model area [s²]", "peak dwell [s]", "safe"}, rows)
}

func runRandom() error {
	fmt.Println("== Ablation: 100 random 6-app workloads ==")
	stats, err := casestudy.RandomWorkloads(42, 100, 6, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		return err
	}
	fmt.Printf("usable workloads:        %d\n", stats.Workloads)
	fmt.Printf("mean slots non-monotonic: %.2f\n", stats.MeanNonMonotonic)
	fmt.Printf("mean slots conservative:  %.2f\n", stats.MeanConservative)
	fmt.Printf("mean saving:              %.1f%%  (max %.0f%%)\n", stats.MeanSavingPercent, stats.MaxSavingPercent)
	fmt.Printf("non-monotonic never worse: %v\n", stats.NeverWorse)
	return nil
}

func runRace() error {
	fmt.Println("== Policy race: first-fit vs sequential vs best-fit (Table I, both safe models) ==")
	rows := make([][]string, 0, 2)
	for _, kind := range []core.ModelKind{core.NonMonotonic, core.ConservativeMonotonic} {
		apps, err := casestudy.PaperApps(kind)
		if err != nil {
			return err
		}
		cells := []string{kind.String()}
		for _, p := range sched.DefaultRacePolicies {
			al, err := sched.Allocate(apps, p, sched.ClosedForm)
			if err != nil {
				return err
			}
			cells = append(cells, fmt.Sprintf("%d", al.NumSlots()))
		}
		winner, err := sched.AllocateRace(apps, nil, sched.ClosedForm)
		if err != nil {
			return err
		}
		cells = append(cells, fmt.Sprintf("%d (%s)", winner.NumSlots(), winner.Policy))
		rows = append(rows, cells)
	}
	return textplot.Table(os.Stdout,
		[]string{"model", "first-fit", "sequential", "best-fit", "race winner"}, rows)
}

func runMethods() error {
	fmt.Println("== Ablation: eq. (20) closed form vs eq. (5) fixed point (all six apps on one slot) ==")
	cmp, err := casestudy.CompareMethods()
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(cmp))
	for _, c := range cmp {
		rows = append(rows, []string{c.App, fmt.Sprintf("%.3f", c.ClosedForm), fmt.Sprintf("%.3f", c.FixedPoint)})
	}
	return textplot.Table(os.Stdout, []string{"app", "k̂wait closed-form", "k̂wait fixed-point"}, rows)
}
