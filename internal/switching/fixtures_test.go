package switching_test

import (
	"context"
	"fmt"
	"testing"

	"cpsdyn/internal/casestudy"
	"cpsdyn/internal/conc"
	"cpsdyn/internal/core"
	"cpsdyn/internal/lti"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/switching"
)

// horizon is the settling horizon core.Derive samples curves with.
const horizon = 20000

func realPoles(ps ...float64) []complex128 {
	out := make([]complex128, len(ps))
	for i, p := range ps {
		out[i] = complex(p, 0)
	}
	return out
}

// probeApp is design 0..19 of the CI probe family: the 2-state probe plant
// whose first TT pole steps through 0.70…0.89.
func probeApp(design int) *core.Application {
	return &core.Application{
		Name: fmt.Sprintf("probe-%d", design),
		Plant: &lti.Continuous{Name: "probe",
			A: mat.FromRows([][]float64{{0, 1}, {-2, -3}}),
			B: mat.FromRows([][]float64{{0}, {1}})},
		H: 0.02, DelayTT: 0.002, DelayET: 0.02, Eth: 0.1, X0: []float64{0, 2},
		R: 8, Deadline: 3, FrameID: 1,
		PolesTT: realPoles(float64(70+design)/100, 0.7, 0.05),
		PolesET: realPoles(0.93, 0.88, 0.1),
	}
}

// dieselApp is the 6-state diesel engine of the RADP example, driven
// through the second column of its input matrix: an order-7 loop whose TT
// powers grow to about 3·10⁴ before they decay.
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
		PolesTT: realPoles(0.80, 0.78, 0.76, 0.74, 0.72, 0.70, 0.05),
		PolesET: realPoles(0.93, 0.92, 0.91, 0.90, 0.89, 0.88, 0.10),
	}
}

// accApp is the adaptive cruise control loop of SNIPPETS.md's Snippet 2
// reduced to its controllable part: the relative distance and velocity to
// the target vehicle, driven by the host's acceleration,
// A = [[0, −1], [0, 0]] and B = [0; 1]. The host velocity, which no input
// reaches (row 3 of the snippet's A and B is zero), is dropped. The plant
// is a double integrator, marginal in open loop, unlike every other
// fixture; the design is probe-style, h = 20 ms with 2 and 20 ms delays,
// and x0 = [0, 2] a 2 m/s relative velocity kick against Eth = 0.1.
func accApp() *core.Application {
	return &core.Application{
		Name: "acc",
		Plant: &lti.Continuous{Name: "acc",
			A: mat.FromRows([][]float64{{0, -1}, {0, 0}}),
			B: mat.FromRows([][]float64{{0}, {1}})},
		H: 0.02, DelayTT: 0.002, DelayET: 0.02, Eth: 0.1, X0: []float64{0, 2},
		R: 8, Deadline: 3, FrameID: 1,
		PolesTT: realPoles(0.80, 0.7, 0.05),
		PolesET: realPoles(0.93, 0.88, 0.1),
	}
}

// fixtureLoops derives every loop the benchmarks and the case study run:
// the 20 probe designs, the diesel engine, the ACC loop and the six
// calibrated §V apps.
func fixtureLoops(t *testing.T) []*core.Derived {
	t.Helper()
	var out []*core.Derived
	for design := 0; design < 20; design++ {
		d, err := probeApp(design).DeriveContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	d, err := dieselApp().DeriveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, d)
	if d, err = accApp().DeriveContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	out = append(out, d)
	fleet, err := casestudy.DeriveFleetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return append(out, fleet...)
}

// Every fixture loop has a certificate for both closed loops, so deriving
// them counts no refusal, and its sampled curve — certified walks
// throughout — equals the exhaustive per-kwait DwellSteps sweep and the
// exhaustive pure-mode walks. The oracle walks every kwait to the
// horizon, mostly in subnormal arithmetic, so the sweep fans out over the
// cores; -short checks every tenth kwait.
func TestFixtureCurvesMatchDwellStepsSweep(t *testing.T) {
	type job struct {
		d     *core.Derived
		kwait int
	}
	var jobs []job
	stride := 1
	if testing.Short() {
		stride = 10
	}
	refusals := switching.CertRefusals()
	fixtures := fixtureLoops(t)
	if got := switching.CertRefusals() - refusals; got != 0 {
		t.Fatalf("deriving the fixtures refused %d certificates", got)
	}
	for _, d := range fixtures {
		s := d.Sys
		if !switching.HasCertificate(s, s.A1, horizon) || !switching.HasCertificate(s, s.A2, horizon) {
			t.Fatalf("%s: certificates: A1 %v, A2 %v; want both", s.Name,
				switching.HasCertificate(s, s.A1, horizon), switching.HasCertificate(s, s.A2, horizon))
		}
		kTT, _ := s.DwellSteps(0, horizon)
		et := *s
		et.A2 = s.A1
		kET, _ := et.DwellSteps(0, horizon)
		if float64(kTT)*s.H != d.Curve.XiTT || float64(kET)*s.H != d.Curve.XiET {
			t.Fatalf("%s: ξTT, ξET = %g, %g; full walks give %d, %d steps", s.Name, d.Curve.XiTT, d.Curve.XiET, kTT, kET)
		}
		for kwait := 0; kwait < len(d.Curve.Samples)-1; kwait += stride {
			jobs = append(jobs, job{d, kwait})
		}
	}
	err := conc.ForEachCtx(context.Background(), len(jobs), 0, func(i int) error {
		s, kwait := jobs[i].d.Sys, jobs[i].kwait
		want := jobs[i].d.Curve.Samples[kwait].Dwell
		if k, ok := s.DwellSteps(kwait, horizon); !ok || float64(k)*s.H != want {
			return fmt.Errorf("%s: kwait %d: curve dwell %g s, DwellSteps %d steps (settled %v)", s.Name, kwait, want, k, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
