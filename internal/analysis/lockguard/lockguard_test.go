package lockguard_test

import (
	"testing"

	"cpsdyn/internal/analysis/analysistest"
	"cpsdyn/internal/analysis/lockguard"
)

func TestPositive(t *testing.T) { analysistest.Run(t, "testdata/src/a", lockguard.Analyzer) }

func TestNegative(t *testing.T) { analysistest.Run(t, "testdata/src/b", lockguard.Analyzer) }

func TestAnnotatedExemption(t *testing.T) { analysistest.Run(t, "testdata/src/c", lockguard.Analyzer) }

func TestAtomicCallPositive(t *testing.T) {
	analysistest.Run(t, "testdata/src/mixed", lockguard.Analyzer)
}

func TestAtomicCallNegative(t *testing.T) {
	analysistest.Run(t, "testdata/src/typed", lockguard.Analyzer)
}
