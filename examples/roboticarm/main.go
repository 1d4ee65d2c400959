// Roboticarm: the §VI generalisation. Three robotic-joint controllers share
// an 802.15.4-style wireless hybrid channel (guaranteed time slots = the
// deterministic lane, CSMA contention period = the best-effort lane). The
// same dwell/wait analysis allocates the minimum number of GTS slots.
package main

import (
	"fmt"
	"log"

	"cpsdyn/internal/core"
	"cpsdyn/internal/hybrid"
	"cpsdyn/internal/plants"
	"cpsdyn/internal/sched"
)

func main() {
	ch := hybrid.WirelessTDMA{
		Superframe: 0.040,
		Beacon:     0.001,
		CAP:        0.008,
		GTSSlots:   6,
		GTSLen:     0.004,
		Airtime:    0.002,
		MaxBackoff: 0.001,
		Retries:    1,
	}
	if err := ch.Validate(); err != nil {
		log.Fatal(err)
	}
	// Worst-case lane delays for three contending joints.
	dTT, err := ch.DeterministicDelay(0)
	if err != nil {
		log.Fatal(err)
	}
	dET, err := ch.BestEffortDelay(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wireless lanes: GTS delay %.1f ms, contention worst case %.1f ms\n",
		dTT*1e3, dET*1e3)

	// Joint controllers sample at the superframe period; the deterministic
	// lane is distinctly faster than the contention lane, exactly the
	// FlexRay TT/ET asymmetry the paper exploits.
	h := 2 * ch.Superframe
	mkJoint := func(name string, frame int, deadline float64) *core.Application {
		return &core.Application{
			Name:     name,
			Plant:    plants.DCMotorPosition(),
			H:        h,
			DelayTT:  dTT,
			DelayET:  min(dET, h),
			Eth:      0.1,
			X0:       []float64{0, 2.0},
			R:        12,
			Deadline: deadline,
			FrameID:  frame,
			PolesTT:  []complex128{0.75, 0.65, 0.05},
			PolesET:  []complex128{0.92, 0.86, 0.10},
		}
	}
	apps := []*core.Application{
		mkJoint("shoulder", 1, 3),
		mkJoint("elbow", 2, 5),
		mkJoint("wrist", 3, 7),
	}
	var fleet []*core.Derived
	for _, a := range apps {
		d, err := a.Derive()
		if err != nil {
			log.Fatal(err)
		}
		row := d.TimingRow()
		fmt.Printf("%-9s ξTT=%.2fs ξET=%.2fs ξM=%.2fs (non-monotonic=%v)\n",
			row.Name, row.XiTT, row.XiET, row.XiM, d.Curve.IsNonMonotonic())
		fleet = append(fleet, d)
	}
	alloc, err := core.AllocateSlots(fleet, core.NonMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		log.Fatal(err)
	}
	if alloc.NumSlots() > ch.GTSSlots {
		log.Fatalf("allocation needs %d GTS but the superframe has %d", alloc.NumSlots(), ch.GTSSlots)
	}
	fmt.Printf("GTS slots needed: %d of %d\n", alloc.NumSlots(), ch.GTSSlots)
	for s, group := range alloc.Slots {
		fmt.Printf("  GTS %d:", s+1)
		for _, a := range group {
			fmt.Printf(" %s", a.Name)
		}
		fmt.Println()
	}
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
