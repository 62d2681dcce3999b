package check

import (
	"os"
	"path/filepath"
	"testing"

	"tca/internal/scenariogen"
)

// BenchmarkRunDiff measures one full differential check (RunDiff) per
// iteration over a fixed set of specs: the committed tcafuzz reproducers
// under testdata and the specs generated from a fixed list of seeds. Its
// allocs/op and B/op are what the checker and the instrumented runs cost
// per spec set.
func BenchmarkRunDiff(b *testing.B) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.tcaspec"))
	if err != nil || len(files) == 0 {
		b.Fatalf("no reproducers under testdata (%v)", err)
	}
	var specs []scenariogen.Spec
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			b.Fatal(err)
		}
		spec, err := scenariogen.Parse(string(text))
		if err != nil {
			b.Fatalf("%s: %v", f, err)
		}
		specs = append(specs, spec)
	}
	for _, seed := range []int64{1, 2, 3, 5, 8, 13, 21, 34} {
		specs = append(specs, scenariogen.Generate(seed))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			d, err := RunDiff(spec, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if d.Failed() {
				b.Fatalf("spec failed:\n%s", scenariogen.Format(spec))
			}
		}
	}
}
