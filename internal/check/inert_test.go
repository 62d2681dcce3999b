package check

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tca/internal/scenariogen"
)

// TestObservabilityInert runs the committed reproducers and generated
// seeds 1..40 once with default options and once with KeepObs. A plain
// run instruments only the registry and the ledger the checker reads; a
// KeepObs run adds the span recorder and the telemetry sampler. Neither
// may move the simulation: transcripts and final memory must match byte
// for byte, and spans must be recorded on the KeepObs side only. The
// fuzzer's plain runs record no spans, so this is what exercises the
// recording paths across faulted, DLL and barrier specs.
func TestObservabilityInert(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep in -short mode")
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.tcaspec"))
	if err != nil || len(files) != 3 {
		t.Fatalf("want the three committed reproducers, got %v (%v)", files, err)
	}
	type named struct {
		name string
		spec scenariogen.Spec
	}
	var specs []named
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := scenariogen.Parse(string(text))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		specs = append(specs, named{filepath.Base(f), spec})
	}
	for seed := int64(1); seed <= 40; seed++ {
		specs = append(specs, named{fmt.Sprintf("seed %d", seed), scenariogen.Generate(seed)})
	}

	if set := observe(Options{}, NewLedger()); set.Recorder() != nil || set.Sampler() != nil {
		t.Fatal("a plain run's observability set carries a span recorder or a sampler")
	}
	faulted, barriers := 0, 0
	var spans uint64
	for _, s := range specs {
		if s.spec.Faults != "" {
			faulted++ // every faulted spec runs its ring cables under the DLL
		}
		for _, o := range s.spec.Ops {
			if o.Kind == scenariogen.OpBarrier {
				barriers++
				break
			}
		}
		plain := mustRun(t, s.spec, Options{})
		kept := mustRun(t, s.spec, Options{KeepObs: true})
		if plain.Obs != nil {
			t.Errorf("%s: a plain run retained its observability set", s.name)
		}
		// A spec whose every op stays inside one node moves no packet
		// over a link, and so has no span to record.
		if kept.Summary.Born > 0 && kept.Obs.Recorder().Total() == 0 {
			t.Errorf("%s: the KeepObs run moved %d packets and recorded no spans", s.name, kept.Summary.Born)
		}
		spans += kept.Obs.Recorder().Total()
		if !bytes.Equal(plain.Transcript, kept.Transcript) {
			t.Errorf("%s: transcripts differ\nplain:\n%s\nKeepObs:\n%s", s.name, plain.Transcript, kept.Transcript)
		}
		if !bytes.Equal(plain.FinalMem, kept.FinalMem) {
			t.Errorf("%s: final memory differs", s.name)
		}
	}
	if spans == 0 {
		t.Fatal("no KeepObs run recorded a span")
	}
	if faulted == 0 || barriers == 0 {
		t.Fatalf("the specs hold %d faulted and %d barrier specs; each kind needs at least one", faulted, barriers)
	}
	t.Logf("%d specs, %d faulted, %d with barriers, %d span events on the KeepObs side", len(specs), faulted, barriers, spans)
}
