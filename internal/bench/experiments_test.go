package bench

import (
	"bytes"
	"path/filepath"
	"testing"

	"tca/internal/tcanet"
)

// TestAllExperimentsReproducePaperShapes runs every registered experiment
// and applies its shape check — the repository's central claim: each of the
// paper's tables and figures regenerates with the paper's qualitative
// behaviour — and byte-pins each table's rendering against the digests in
// testdata/tables.sha256.
func TestAllExperimentsReproducePaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	want := readDigests(t, filepath.Join("testdata", "tables.sha256"))
	prm := tcanet.DefaultParams
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab := e.Run(prm)
			var buf bytes.Buffer
			if err := tab.Format(&buf); err != nil {
				t.Fatalf("Format: %v", err)
			}
			t.Logf("\n%s", buf.String())
			checkDigest(t, want, e.ID, buf.Bytes())
			if len(tab.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			if e.Check != nil {
				if err := e.Check(tab); err != nil {
					t.Fatalf("shape check failed: %v", err)
				}
			}
		})
	}
}

// TestExperimentsDeterministic re-runs Fig9 and demands identical output —
// the discrete-event engine promises bit-for-bit reproducibility.
func TestExperimentsDeterministic(t *testing.T) {
	prm := tcanet.DefaultParams
	a := Fig9(prm)
	b := Fig9(prm)
	if len(a.Rows) != len(b.Rows) {
		t.Fatal("row counts differ between runs")
	}
	for i := range a.Rows {
		if a.Rows[i].X != b.Rows[i].X {
			t.Fatalf("row %d keys differ", i)
		}
		for j := range a.Rows[i].Vals {
			if a.Rows[i].Vals[j] != b.Rows[i].Vals[j] {
				t.Fatalf("row %d col %d: %q vs %q — simulation not deterministic",
					i, j, a.Rows[i].Vals[j], b.Rows[i].Vals[j])
			}
		}
	}
}
