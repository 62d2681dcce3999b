package bench

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Identity gates. The simulation is deterministic, so every table and every
// CLI transcript is a fixed byte string; the SHA-256 digests committed under
// testdata/ pin them. A refactor that claims "no behaviour change" must pass
// these unchanged. A deliberate model change regenerates the digests from
// the "got" values the failures print.

// readDigests parses a sha256sum-style file ("<hex>  <name>" per line).
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("digest file: %v", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return out
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checkDigest compares data's digest against the committed one.
func checkDigest(t *testing.T, want map[string]string, name string, data []byte) {
	t.Helper()
	got := sha256Hex(data)
	if w, ok := want[name]; !ok {
		t.Errorf("no committed digest for %s (got %s  %s)", name, got, name)
	} else if got != w {
		t.Errorf("%s output changed: digest %s, committed %s", name, got, w)
	}
}

// cliCases are the CLI invocations CI and the docs rely on. Each runs in a
// fresh directory; files names the relative output files hashed beside
// stdout. tcabench -perfetto and -prof are absent: their profiler host-time
// tracks are measured, not simulated.
var cliCases = []struct {
	name  string
	args  []string
	files []string
}{
	{"tcatrace-pingpong", []string{"tcatrace", "-scenario", "pingpong", "-nodes", "4", "-src", "0", "-dst", "2"}, nil},
	{"tcatrace-pingpong-json", []string{"tcatrace", "-scenario", "pingpong", "-nodes", "4", "-src", "0", "-dst", "2", "-json"}, nil},
	{"tcatrace-pingpong-perfetto", []string{"tcatrace", "-scenario", "pingpong", "-nodes", "4", "-src", "0", "-dst", "2",
		"-metrics", "none", "-perfetto", "pingpong-trace.json"}, []string{"pingpong-trace.json"}},
	{"tcatrace-forward-events", []string{"tcatrace", "-scenario", "forward", "-nodes", "8", "-dst", "3", "-events"}, nil},
	{"tcatrace-dma", []string{"tcatrace", "-scenario", "dma", "-size", "4096", "-count", "8", "-metrics", "json"}, nil},
	{"tcatrace-fault", []string{"tcatrace", "-scenario", "pingpong", "-nodes", "4", "-src", "0", "-dst", "2",
		"-fault", "linkdown:1e:12us", "-seed", "7", "-rounds", "10", "-metrics", "json"}, nil},
	{"tcapath-pingpong", []string{"tcapath", "-scenario", "pingpong", "-nodes", "4", "-src", "0", "-dst", "2",
		"-rounds", "8", "-check", "-json", "budget-pingpong.json"}, []string{"budget-pingpong.json"}},
	{"tcapath-chain-dma", []string{"tcapath", "-scenario", "chain-dma", "-size", "4096", "-count", "8", "-chains", "4",
		"-check", "-json", "budget-chain-dma.json"}, []string{"budget-chain-dma.json"}},
	{"tcatop-forward", []string{"tcatop", "-scenario", "forward"}, nil},
	{"tcatop-pingpong", []string{"tcatop", "-scenario", "pingpong", "-rounds", "50"}, nil},
	{"tcabench-metrics", []string{"tcabench", "-metrics", "json"}, nil},
	{"tcabench-fault", []string{"tcabench", "-fault", "linkdown:1e:12us", "-seed", "7"}, nil},
}

// TestCLITranscriptsIdentical builds the scenario CLIs and byte-pins what
// they print (stdout and output files) for every invocation in cliCases.
func TestCLITranscriptsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLIs")
	}
	// go test puts its own toolchain first on the PATH.
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not found")
	}
	want := readDigests(t, filepath.Join("testdata", "cli.sha256"))
	bin := t.TempDir()
	build := exec.Command(goBin, "build", "-o", bin+string(filepath.Separator),
		"tca/cmd/tcatrace", "tca/cmd/tcapath", "tca/cmd/tcatop", "tca/cmd/tcabench")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range cliCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(filepath.Join(bin, tc.args[0]), tc.args[1:]...)
			cmd.Dir = dir
			var stderr strings.Builder
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v: %v\n%s", tc.args, err, stderr.String())
			}
			checkDigest(t, want, tc.name, stdout)
			for _, f := range tc.files {
				data, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				checkDigest(t, want, tc.name+":"+f, data)
			}
		})
	}
}
