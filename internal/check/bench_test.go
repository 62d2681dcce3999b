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

// TestRunAllocationCeiling gates what one checked run allocates on a
// committed reproducer: a 12-node ring with two dead links, a 48 KiB GPU
// put and two strided puts. Payload bytes move once — completions are
// pooled and filled in place, DMA reads allocate nothing of their own,
// and FinalMem is read straight into place — so the run took 13,656
// allocations when the ceiling was set (20,784 before). The count is
// deterministic for a given Go release; the ceiling leaves 5% for
// runtime drift.
func TestRunAllocationCeiling(t *testing.T) {
	const ceiling = 14300
	text, err := os.ReadFile(filepath.Join("testdata", "parked-dead-port-seed4.tcaspec"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenariogen.Parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(spec, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("check.Run allocates %.0f times on the seed-4 reproducer, ceiling %d", allocs, ceiling)
	}
}
