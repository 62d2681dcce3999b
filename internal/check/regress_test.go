package check

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tca/internal/scenariogen"
)

// TestRegressionSpecs replays every minimized failing spec under testdata
// through the full differential and requires it to pass. Each file is a
// tcafuzz reproducer of a fixed defect; its header says which.
func TestRegressionSpecs(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.tcaspec"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no .tcaspec files under testdata")
	}
	for _, f := range files {
		t.Run(strings.TrimSuffix(filepath.Base(f), ".tcaspec"), func(t *testing.T) {
			text, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := scenariogen.Parse(string(text))
			if err != nil {
				t.Fatal(err)
			}
			d, err := RunDiff(spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if d.Failed() {
				t.Fatalf("failed:\n%s", strings.Join(d.Failures, "\n"))
			}
		})
	}
}
