package main

import (
	"fmt"
	"math/rand/v2"

	"cpsdyn/internal/casestudy"
	"cpsdyn/internal/mat"
	"cpsdyn/internal/plants"
	"cpsdyn/internal/service"
)

// The fixtures below are the benchmark's inputs. The service only ever sees
// them as the NDJSON and JSON bodies built from these specs.

// probeSpec is one row of the CI gateway probe family: the 2-state probe
// plant whose first TT pole steps through 0.70…0.89 with the design index,
// so 300 rows share 20 dwell curves. The ET poles are fixed, so every
// design walks the same number of kwaits, each 20 000 steps deep; the walks
// decay into the subnormal range.
func probeSpec(name string, design int) service.DeriveAppSpec {
	return service.DeriveAppSpec{
		Name:     name,
		Plant:    service.PlantSpec{Name: "probe", A: [][]float64{{0, 1}, {-2, -3}}, B: [][]float64{{0}, {1}}},
		H:        0.02,
		DelayTT:  0.002,
		DelayET:  0.02,
		Eth:      0.1,
		X0:       []float64{0, 2},
		R:        8,
		Deadline: 3,
		PolesTT:  []float64{float64(70+design) / 100, 0.7, 0.05},
		PolesET:  []float64{0.93, 0.88, 0.1},
	}
}

// dieselSpec is the 6-state diesel engine of the RADP example, driven
// through the second column of its input matrix. Its augmented loop has
// order 7, so its curve runs through the generic (not unrolled) MulVecTo
// kernel; the curve is non-monotonic with 164 kwait samples.
func dieselSpec(name string) service.DeriveAppSpec {
	return service.DeriveAppSpec{
		Name: name,
		Plant: service.PlantSpec{
			Name: "diesel",
			A: [][]float64{
				{-0.4125, -0.0248, 0.0741, 0.0089, 0, 0},
				{101.5873, -7.2651, 2.7608, 2.8068, 0, 0},
				{0.0704, 0.0085, -0.0741, -0.0089, 0, 0.0200},
				{0.0878, 0.2672, 0, -0.3674, 0.0044, 0.3962},
				{-1.8414, 0.0990, 0, 0, -0.0343, -0.0330},
				{0, 0, 0, -359, 187.5364, -87.0316},
			},
			B: [][]float64{{0.0064}, {1.5849}, {0}, {0}, {-0.0168}, {0}},
		},
		H:        0.02,
		DelayTT:  0.002,
		DelayET:  0.02,
		Eth:      0.1,
		X0:       []float64{0, 2, 0, 0, 0, 0},
		R:        8,
		Deadline: 3,
		PolesTT:  []float64{0.80, 0.78, 0.76, 0.74, 0.72, 0.70, 0.05},
		PolesET:  []float64{0.93, 0.92, 0.91, 0.90, 0.89, 0.88, 0.10},
	}
}

// caseStudyFleet is the §V measured-mode fleet: the Table I row, the plant
// from plants.All(), and the disturbance, threshold, frame ID and ET pole
// frequency of internal/casestudy's (unexported) fleet table.
var caseStudyFleet = []struct {
	row     int // index into casestudy.TableI()
	plant   string
	x0      []float64
	eth     float64
	frameID int
	etOmega float64
}{
	{0, "lane", []float64{0, 1.5}, 0.1, 6, 0},
	{1, "dcmotor", []float64{0, 2.0}, 0.1, 3, 0},
	{2, "servo", []float64{0, 2.0}, 0.1, 1, 0},
	{3, "suspension", []float64{0, 0.8}, 0.05, 4, 7.3},
	{4, "cruise", []float64{0, 2.0}, 0.1, 5, 0},
	{5, "throttle", []float64{0, 2.0}, 0.1, 2, 0},
}

// calibrateSpec is the calibration request for entry i of caseStudyFleet.
func calibrateSpec(name string, i int) service.CalibrateAppSpec {
	f := caseStudyFleet[i]
	row := casestudy.TableI()[f.row]
	p := plants.All()[f.plant]
	return service.CalibrateAppSpec{
		Name:       name,
		Plant:      service.PlantSpec{Name: p.Name, A: rowsOf(p.A), B: rowsOf(p.B)},
		H:          0.020,
		DelayTT:    0.002,
		DelayET:    0.020,
		Eth:        f.eth,
		X0:         append([]float64(nil), f.x0...),
		R:          row.R,
		Deadline:   row.Xid,
		FrameID:    f.frameID,
		TargetXiTT: row.XiTT,
		TargetXiET: row.XiET,
		EtOmega:    f.etOmega,
	}
}

func rowsOf(m *mat.Matrix) [][]float64 {
	out := make([][]float64, m.Rows())
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// names draws n distinct seeded app names with the given prefix.
func names(rng *rand.Rand, prefix string, n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		name := fmt.Sprintf("%s-%06x", prefix, rng.Uint32()&0xffffff)
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// coldFleetSpecs is the cold-fleet stream: probeApps rows over the first
// probeDesigns probe designs (app i uses design i mod probeDesigns, as in
// CI) plus dieselApps rows sharing the diesel design, in seeded order with
// seeded names.
func coldFleetSpecs(rng *rand.Rand, probeApps, probeDesigns, dieselApps int) []service.DeriveAppSpec {
	specs := make([]service.DeriveAppSpec, 0, probeApps+dieselApps)
	for i, name := range names(rng, "probe", probeApps) {
		specs = append(specs, probeSpec(name, (i+1)%probeDesigns))
	}
	for _, name := range names(rng, "diesel", dieselApps) {
		specs = append(specs, dieselSpec(name))
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// loopFleetSpecs is the design-loop fleet: apps rows spread evenly over
// designs probe designs taken at a stride across the family, in seeded
// order with seeded names.
func loopFleetSpecs(rng *rand.Rand, apps, designs int) []service.DeriveAppSpec {
	stride := 20 / designs
	specs := make([]service.DeriveAppSpec, 0, apps)
	for i, name := range names(rng, "loop", apps) {
		specs = append(specs, probeSpec(name, (i%designs)*stride))
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// Every design-loop deadline is drawn from [loopDeadlineMin, r] and every r
// from [loopRMin, loopRMax]. The probe designs the loop uses settle under
// pure TT in well under loopDeadlineMin, so every app fits a slot on its
// own and every drawn fleet is schedulable; the set-up checks this against
// the derived ξTT before the loop starts.
const (
	loopDeadlineMin = 1.5
	loopRMin        = 4.0
	loopRMax        = 16.0
)

// loopTimings draws the seeded (r, deadline) pair of every design-loop app.
func loopTimings(rng *rand.Rand, n int) (r, deadline []float64) {
	r, deadline = make([]float64, n), make([]float64, n)
	for i := range r {
		r[i] = loopRMin + (loopRMax-loopRMin)*rng.Float64()
		deadline[i] = loopDeadlineMin + (r[i]-loopDeadlineMin)*rng.Float64()
	}
	return r, deadline
}

// calibrateSpecs is the calibrate stream: the first n §V apps in seeded
// order with seeded names.
func calibrateSpecs(rng *rand.Rand, n int) []service.CalibrateAppSpec {
	specs := make([]service.CalibrateAppSpec, 0, n)
	for i := 0; i < n; i++ {
		row := casestudy.TableI()[caseStudyFleet[i].row]
		specs = append(specs, calibrateSpec(names(rng, row.Name, 1)[0], i))
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}
