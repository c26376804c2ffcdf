package analyzers_test

import (
	"testing"

	"reusetool/internal/analyzers"
	"reusetool/internal/analyzers/analysistest"
)

func TestUnused(t *testing.T) {
	analysistest.Run(t, "testdata/src", analyzers.Unused, "unusedlib", "unuseduse")
}
