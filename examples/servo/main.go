// Servo: reproduce the paper's Fig. 2/3 experiment — the inverted-pendulum
// servo whose dwell/wait relation is non-monotonic — and print the measured
// curve with the three §III models.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"cpsdyn/internal/casestudy"
	"cpsdyn/internal/textplot"
)

func main() {
	ctx := context.Background()
	app, err := casestudy.ServoAppContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	servo, err := app.DeriveContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fig4 := casestudy.RunFig4(servo)
	curve := fig4.Curve
	peak := curve.PeakSample()
	fmt.Printf("servo experiment: ξTT=%.2f s (paper 0.68), ξET=%.2f s (paper 2.16)\n",
		curve.XiTT, curve.XiET)
	fmt.Printf("dwell peak: %.2f s at kwait=%.2f s — non-monotonic: %v\n",
		peak.Dwell, peak.Wait, curve.IsNonMonotonic())
	fmt.Printf("models: ξM=%.2f at kp=%.2f; conservative ξ′M=%.2f; simple is UNSAFE (dominates curve: %v)\n",
		fig4.NonMonotonic.MaxDwell(), fig4.NonMonotonic.PeakWait(),
		fig4.Conservative.MaxDwell(), fig4.Simple.Dominates(curve.Samples, 1e-9))

	var xs, ys []float64
	for _, s := range curve.Samples {
		xs = append(xs, s.Wait)
		ys = append(ys, s.Dwell)
	}
	if err := textplot.Plot(os.Stdout, "kdw vs kwait (Fig. 3)", []textplot.Series{
		{Name: "measured", X: xs, Y: ys},
	}, 72, 16); err != nil {
		log.Fatal(err)
	}
}
