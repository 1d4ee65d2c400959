// Quickstart: describe two distributed control applications, derive their
// dwell/wait models, allocate the minimum number of FlexRay TT slots, and
// verify the allocation in the event-level co-simulation.
package main

import (
	"context"
	"fmt"
	"log"

	"cpsdyn/internal/core"
	"cpsdyn/internal/flexray"
	"cpsdyn/internal/plants"
	"cpsdyn/internal/sched"
)

func main() {
	// 1. Describe the applications: plant, timing, disturbance, controller.
	steer := &core.Application{
		Name:     "steer-assist",
		Plant:    plants.Servo(),
		H:        0.020,             // 20 ms sampling
		DelayTT:  0.002,             // static-slot delay
		DelayET:  0.020,             // worst-case dynamic-segment delay
		Eth:      0.1,               // steady-state threshold on ‖x‖
		X0:       []float64{0, 2.0}, // disturbance: 2 rad/s shove
		R:        8,                 // min disturbance inter-arrival (s)
		Deadline: 2,                 // desired response time ξd (s)
		FrameID:  1,
		PolesTT:  []complex128{0.80, 0.70, 0.05},
		PolesET:  []complex128{0.93, 0.88, 0.10},
	}
	damper := &core.Application{
		Name:     "active-damper",
		Plant:    plants.Suspension(),
		H:        0.020,
		DelayTT:  0.002,
		DelayET:  0.020,
		Eth:      0.05,
		X0:       []float64{0, 0.8}, // pothole velocity kick
		R:        10,
		Deadline: 4,
		FrameID:  2,
		PolesTT:  []complex128{0.70, 0.60, 0.05},
		PolesET:  []complex128{0.95, 0.90, 0.10},
	}

	// 2. Derive: controllers, switched loops, dwell curve, safe models.
	ctx := context.Background()
	var fleet []*core.Derived
	for _, app := range []*core.Application{steer, damper} {
		d, err := app.DeriveContext(ctx)
		if err != nil {
			log.Fatal(err)
		}
		row := d.TimingRow()
		fmt.Printf("%-14s ξTT=%.2fs ξET=%.2fs ξM=%.2fs kp=%.2fs ξ′M=%.2fs non-monotonic=%v\n",
			row.Name, row.XiTT, row.XiET, row.XiM, row.Kp, row.XiPrimeM, d.Curve.IsNonMonotonic())
		fleet = append(fleet, d)
	}

	// 3. Allocate TT slots under the non-monotonic model.
	alloc, err := core.AllocateSlots(ctx, fleet, core.NonMonotonic, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TT slots needed: %d\n", alloc.NumSlots())
	for s, group := range alloc.Slots {
		fmt.Printf("  slot %d:", s+1)
		for _, a := range group {
			fmt.Printf(" %s", a.Name)
		}
		fmt.Println()
	}

	// 4. Verify in the event-level FlexRay co-simulation: both apps are
	// disturbed at t = 0 and must meet their deadlines.
	res, err := core.Verify(fleet, alloc, core.SimPlan{
		Bus:          flexray.CaseStudyConfig(),
		Duration:     8,
		JitterBuffer: true,
		DisturbAllAt: 0,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range fleet {
		ar := res.Apps[d.App.Name]
		fmt.Printf("%-14s simulated response %.2fs (deadline %.2fs) met=%v\n",
			d.App.Name, float64(ar.ResponseTimes[0])/1e9, d.App.Deadline, ar.DeadlineMet)
	}
}
