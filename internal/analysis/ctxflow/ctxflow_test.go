package ctxflow_test

import (
	"testing"

	"cpsdyn/internal/analysis/analysistest"
	"cpsdyn/internal/analysis/ctxflow"
)

func TestPositive(t *testing.T) { analysistest.Run(t, "testdata/src/a", ctxflow.Analyzer) }

func TestNegative(t *testing.T) { analysistest.Run(t, "testdata/src/b", ctxflow.Analyzer) }
