package lti

import (
	"testing"

	"cpsdyn/internal/mat"
)

func benchPlant() *Continuous {
	return &Continuous{
		Name: "servo",
		A:    mat.FromRows([][]float64{{0, 1}, {-2, -3}}),
		B:    mat.FromRows([][]float64{{0}, {1}}),
	}
}

// BenchmarkDiscretize measures the full delay-split discretisation — the
// per-plant cost every fleet derivation pays twice (TT and ET variants).
func BenchmarkDiscretize(b *testing.B) {
	p := benchPlant()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Discretize(p, 0.02, 0.002); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelayTableGammas measures the per-delay cost of the sweep
// helper after its Φ(h) prework, with the memo cache defeated so every
// iteration pays the exponential evaluation.
func BenchmarkDelayTableGammas(b *testing.B) {
	t, err := NewDelayTable(benchPlant(), 0.02)
	if err != nil {
		b.Fatal(err)
	}
	delays := []float64{0.001, 0.0015, 0.002, 0.0025, 0.003, 0.004, 0.005, 0.008}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clear(t.cache)
		for _, d := range delays {
			if _, _, err := t.Gammas(d); err != nil {
				b.Fatal(err)
			}
		}
	}
}
