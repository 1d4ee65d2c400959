// Package a exercises the determinism positive cases: ordered writes under
// map iteration, wall-clock and global-rand reads, unindexed fan-in.
package a

import (
	"math/rand"
	"time"
)

// orderedAppend feeds a slice from map iteration order.
func orderedAppend(m map[string]float64) []float64 {
	var out []float64
	for _, v := range m {
		out = append(out, v) // want `append under a map range`
	}
	return out
}

// orderedIndex writes sequential slice positions under map iteration.
func orderedIndex(m map[string]float64, out []float64) {
	i := 0
	for _, v := range m {
		out[i] = v // want `indexed write into out under a map range`
		i++
	}
}

// accumulate sums floats in map iteration order: bit-level results differ
// between runs.
func accumulate(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // want `accumulation into total under a map range`
	}
	return total
}

// lastWriter keeps whichever value map iteration visits last.
func lastWriter(m map[string]float64) float64 {
	var last float64
	for _, v := range m {
		last = v // want `last-writer-wins assignment to last under a map range`
	}
	return last
}

// wallClock stamps an artefact.
func wallClock() int64 {
	return time.Now().UnixNano() // want `time\.Now in a kernel package`
}

// globalRand perturbs with process-global random state.
func globalRand(x float64) float64 {
	return x + rand.Float64() // want `unseeded global rand\.Float64`
}

// fanIn collects worker results in scheduler order.
func fanIn(xs []float64) []float64 {
	ch := make(chan float64, len(xs))
	for _, x := range xs {
		x := x
		go func() {
			ch <- x * x // want `goroutine fan-in without an index`
		}()
	}
	out := make([]float64, 0, len(xs))
	for range xs {
		out = append(out, <-ch)
	}
	return out
}

// maxNorm still carries the annotation that once exempted it; no
// directive exempts a function from determinism any more.
//
//cpsdyn:order-invariant the annotation no longer exempts anything
func maxNorm(m map[string]float64) float64 {
	peak := 0.0
	for _, v := range m {
		if v > peak {
			peak = v // want `last-writer-wins assignment to peak under a map range`
		}
	}
	return peak
}
