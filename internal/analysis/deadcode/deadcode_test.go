package deadcode_test

import (
	"testing"

	"tca/internal/analysis/analysistest"
	"tca/internal/analysis/deadcode"
)

func TestDeadCode(t *testing.T) {
	analysistest.Run(t, "testdata", deadcode.Analyzer, "tca", "tca/cmd/app")
}
