// Fleet: the full §V case study. Paper mode reproduces the 3-vs-5 slot
// headline from Table I; measured mode calibrates six concrete automotive
// plants against Table I, derives them concurrently through the fleet
// engine, races the allocation heuristics for the tightest packing, and
// runs the Fig.-5 FlexRay co-simulation with every disturbance at t = 0.
package main

import (
	"context"
	"fmt"
	"log"

	"cpsdyn/internal/casestudy"
	"cpsdyn/internal/core"
	"cpsdyn/internal/sched"
)

func main() {
	ctx := context.Background()
	// Paper mode: exact Table I arithmetic.
	cmp, err := casestudy.ComparePaperSlotCounts(ctx, sched.FirstFit, sched.ClosedForm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paper mode: non-monotonic %d slots, conservative %d slots (+%.0f%%)\n",
		cmp.NonMonotonicSlots, cmp.ConservativeSlots, cmp.ExtraPercent)

	// Measured mode: calibrate the six plants concurrently, then derive the
	// fleet across the worker pool (the derivation cache makes the repeated
	// plant/timing combinations near-free).
	fmt.Println("measured mode: calibrating six plants against Table I (concurrent)…")
	apps, err := casestudy.FleetContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := core.DeriveFleet(ctx, apps)
	if err != nil {
		log.Fatal(err)
	}
	cst := core.DeriveCacheStats()
	fmt.Printf("derivation cache: %d hits, %d misses, %d evictions\n", cst.Hits, cst.Misses, cst.Evictions)

	// Race the allocation heuristics and keep the tightest packing.
	alloc, err := core.AllocateSlotsRace(fleet, core.NonMonotonic, nil, sched.ClosedForm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("allocation: %d slots (winning policy: %s)\n", alloc.NumSlots(), alloc.Policy)
	for s, group := range alloc.Slots {
		fmt.Printf("  slot %d:", s+1)
		for _, a := range group {
			fmt.Printf(" %s", a.Name)
		}
		fmt.Println()
	}

	res, err := core.Verify(fleet, alloc, casestudy.Fig5Plan())
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range fleet {
		ar := res.Apps[d.App.Name]
		fmt.Printf("  %s: response %.2f s (ξd %.2f s) met=%v\n",
			d.App.Name, float64(ar.ResponseTimes[0])/1e9, d.App.Deadline, ar.DeadlineMet)
	}
	st := res.BusStats
	fmt.Printf("bus: %d cycles, %d TT frames, %d ET frames, %d wasted TT windows\n",
		st.Cycles, st.StaticTransmitted, st.DynTransmitted, st.StaticWasted)
}
