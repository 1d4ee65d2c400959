package determinism_test

import (
	"testing"

	"cpsdyn/internal/analysis/analysistest"
	"cpsdyn/internal/analysis/determinism"
)

func TestPositive(t *testing.T) { analysistest.Run(t, "testdata/src/a", determinism.Analyzer) }

func TestNegative(t *testing.T) { analysistest.Run(t, "testdata/src/b", determinism.Analyzer) }
