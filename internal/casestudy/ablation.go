package casestudy

import (
	"context"
	"fmt"
	"math/rand"

	"cpsdyn/internal/core"
	"cpsdyn/internal/pwl"
	"cpsdyn/internal/sched"
)

// KpSweepPoint is one point of the dwell-peak-position ablation.
type KpSweepPoint struct {
	Fraction          float64 // kp scaled to fraction·kp_paper
	NonMonotonicSlots int
	ConservativeSlots int
}

// SweepKp rescales every Table I application's dwell-peak position kp by
// each fraction (keeping ξM, ξTT and ξET fixed) and reports the slot counts
// under both models. It isolates the mechanism behind the paper's 67%
// result: the later the dwell curve peaks, the more the conservative
// monotonic model over-provisions (ξ′M = ξM·ξET/(ξET−kp) grows with kp)
// while the non-monotonic model is unaffected in its peak.
func SweepKp(ctx context.Context, fractions []float64, policy sched.Policy, method sched.Method) ([]KpSweepPoint, error) {
	rows := TableI()
	out := make([]KpSweepPoint, 0, len(fractions))
	for _, f := range fractions {
		if f <= 0 || f >= 1.5 {
			return nil, fmt.Errorf("casestudy: kp fraction %g outside (0, 1.5)", f)
		}
		var nmApps, consApps []*sched.App
		for _, r := range rows {
			kp := f * r.Kp
			nm, err := pwl.PaperNonMonotonic(r.XiTT, kp, r.XiM, r.XiET)
			if err != nil {
				return nil, fmt.Errorf("casestudy: %s at fraction %g: %w", r.Name, f, err)
			}
			cons, err := pwl.PaperConservative(kp, r.XiM, r.XiET)
			if err != nil {
				return nil, fmt.Errorf("casestudy: %s at fraction %g: %w", r.Name, f, err)
			}
			nmApps = append(nmApps, &sched.App{Name: r.Name, R: r.R, Deadline: r.Xid, Model: nm})
			consApps = append(consApps, &sched.App{Name: r.Name, R: r.R, Deadline: r.Xid, Model: cons})
		}
		nmAl, err := sched.AllocateContext(ctx, nmApps, policy, method)
		if err != nil {
			return nil, err
		}
		consAl, err := sched.AllocateContext(ctx, consApps, policy, method)
		if err != nil {
			return nil, err
		}
		out = append(out, KpSweepPoint{
			Fraction:          f,
			NonMonotonicSlots: nmAl.NumSlots(),
			ConservativeSlots: consAl.NumSlots(),
		})
	}
	return out, nil
}

// RandomWorkloadStats summarises the synthetic-workload sweep.
type RandomWorkloadStats struct {
	Workloads         int
	MeanNonMonotonic  float64
	MeanConservative  float64
	MeanSavingPercent float64 // conservative slots saved by the non-monotonic model
	MaxSavingPercent  float64
	NeverWorse        bool // non-monotonic never used more slots than conservative
}

// RandomWorkloads generates `count` synthetic workloads of n applications
// each, with Table-I-like parameter ranges, and compares slot counts under
// the two safe models. The generator draws ξTT, then ξET, kp and ξM
// consistently (ξTT ≤ ξM, kp < ξET), deadlines between the analytic
// minimum and the inter-arrival time.
func RandomWorkloads(ctx context.Context, seed int64, count, n int, policy sched.Policy, method sched.Method) (*RandomWorkloadStats, error) {
	if count <= 0 || n <= 0 {
		return nil, fmt.Errorf("casestudy: need positive count (%d) and n (%d)", count, n)
	}
	rng := rand.New(rand.NewSource(seed))
	stats := &RandomWorkloadStats{Workloads: count, NeverWorse: true}
	for w := 0; w < count; w++ {
		var nmApps, consApps []*sched.App
		for i := 0; i < n; i++ {
			xiTT := 0.3 + 2.5*rng.Float64()
			xiET := xiTT * (2.5 + 3.5*rng.Float64())
			kp := xiET * (0.05 + 0.25*rng.Float64())
			xiM := xiTT * (1.0 + 1.5*rng.Float64())
			// Keep utilisations Table-I-like (ξM/r a few percent to ~15%)
			// so workloads need several slots and the model choice matters.
			r := xiET * (1.2 + 3.0*rng.Float64())
			dlMin := xiTT * 1.5
			dlMax := r
			deadline := dlMin + (dlMax-dlMin)*rng.Float64()
			name := fmt.Sprintf("W%dA%d", w, i)
			nm, err := pwl.PaperNonMonotonic(xiTT, kp, xiM, xiET)
			if err != nil {
				return nil, err
			}
			cons, err := pwl.PaperConservative(kp, xiM, xiET)
			if err != nil {
				return nil, err
			}
			nmApps = append(nmApps, &sched.App{Name: name, R: r, Deadline: deadline, Model: nm})
			consApps = append(consApps, &sched.App{Name: name, R: r, Deadline: deadline, Model: cons})
		}
		nmAl, errNM := sched.AllocateContext(ctx, nmApps, policy, method)
		consAl, errC := sched.AllocateContext(ctx, consApps, policy, method)
		if errNM != nil || errC != nil {
			// A generated app can be unschedulable even alone (deadline
			// below its own dwell model). Skip such workloads; they carry
			// no information about the model comparison.
			stats.Workloads--
			continue
		}
		nmN, cN := nmAl.NumSlots(), consAl.NumSlots()
		stats.MeanNonMonotonic += float64(nmN)
		stats.MeanConservative += float64(cN)
		if nmN > cN {
			stats.NeverWorse = false
		}
		if nmN > 0 {
			saving := 100 * float64(cN-nmN) / float64(nmN)
			stats.MeanSavingPercent += saving
			if saving > stats.MaxSavingPercent {
				stats.MaxSavingPercent = saving
			}
		}
	}
	if stats.Workloads > 0 {
		stats.MeanNonMonotonic /= float64(stats.Workloads)
		stats.MeanConservative /= float64(stats.Workloads)
		stats.MeanSavingPercent /= float64(stats.Workloads)
	}
	return stats, nil
}

// SegmentSweepPoint measures how much tighter a k-segment hull model is
// than the paper's 2-segment model on the servo curve.
type SegmentSweepPoint struct {
	Segments  int
	Area      float64 // ∫ model over [0, ξET]: smaller = tighter = less pessimism
	PeakDwell float64 // the model's ξM equivalent
	Dominates bool    // safety: model ≥ measured curve everywhere
}

// SweepSegments fits hull models with increasing segment budgets to the
// derived servo's measured dwell curve (see ServoAppContext) — the paper's
// §III remark that "the relation ... may be modeled with three or more
// piecewise linear curves, to be closer to the actual behavior". Area is
// the integral of the model (the analysis pessimism); it must be
// non-increasing in the budget while every model stays safe.
func SweepSegments(servo *core.Derived, budgets []int) ([]SegmentSweepPoint, error) {
	curve := servo.Curve
	out := make([]SegmentSweepPoint, 0, len(budgets))
	for _, k := range budgets {
		m, err := pwl.FitHull(curve.Samples, curve.XiET, k)
		if err != nil {
			return nil, fmt.Errorf("casestudy: %d segments: %w", k, err)
		}
		area := 0.0
		const n = 4000
		dx := curve.XiET / n
		for i := 0; i < n; i++ {
			area += m.Dwell(float64(i)*dx) * dx
		}
		out = append(out, SegmentSweepPoint{
			Segments:  k,
			Area:      area,
			PeakDwell: m.MaxDwell(),
			Dominates: m.Dominates(curve.Samples, 1e-9),
		})
	}
	return out, nil
}

// MethodComparison contrasts the closed-form bound with the fixed-point
// iteration on the Table I workload.
type MethodComparison struct {
	App        string
	ClosedForm float64 // k̂wait under eq. (20)
	FixedPoint float64 // k̂wait under the eq. (5) iteration
}

// CompareMethods computes both wait-time bounds for every app on the
// paper's slot-1 grouping plus the full set on one hypothetical slot.
func CompareMethods() ([]MethodComparison, error) {
	apps, err := PaperApps(core.NonMonotonic)
	if err != nil {
		return nil, err
	}
	sorted := sched.SortByPriority(apps)
	out := make([]MethodComparison, 0, len(sorted))
	for i := range sorted {
		cf, err1 := sched.MaxWait(sorted, i, sched.ClosedForm)
		fp, err2 := sched.MaxWait(sorted, i, sched.FixedPoint)
		if err1 != nil || err2 != nil {
			// Over-utilised tail apps are reported as +Inf by both methods.
			continue
		}
		out = append(out, MethodComparison{App: sorted[i].Name, ClosedForm: cf, FixedPoint: fp})
	}
	return out, nil
}
