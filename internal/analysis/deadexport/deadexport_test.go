package deadexport_test

import (
	"testing"

	"tca/internal/analysis/analysistest"
	"tca/internal/analysis/deadexport"
)

func TestDeadExport(t *testing.T) {
	analysistest.Run(t, "testdata", deadexport.Analyzer, "tca", "tca/cmd/app")
}
