package bench

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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
// stdout. tcabench -perfetto, tcabench -prof and tcatop -prof are absent:
// their profiler host-time figures are measured, not simulated, so
// hostTimedCases covers them instead.
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
	bin := buildCLIs(t, "tcatrace", "tcapath", "tcatop", "tcabench")
	want := readDigests(t, filepath.Join("testdata", "cli.sha256"))
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

// hostTimedCases are the scenario invocations cliCases leaves out because
// they print measured host time. first is a pattern for the first stdout
// line: the simulated scenario title, or for -prof the headline with its
// host-measured figures wildcarded. perfetto names a trace file the run
// must write.
var hostTimedCases = []struct {
	name     string
	args     []string
	first    string
	perfetto string
}{
	{"tcabench-perfetto", []string{"tcabench", "-perfetto", "forward-trace.json"},
		regexp.QuoteMeta("scenario: forward DMA 64×4KiB node0->node2 (4-node ring), sampled every 1us"),
		"forward-trace.json"},
	{"tcabench-prof-all", []string{"tcabench", "-prof", "all"},
		`pingpong: \S+ events/s \(6400 events in \S+, \S+ allocs/event, \d+ GC cycles, queue high-water 2\)`, ""},
	{"tcatop-prof", []string{"tcatop", "-prof"},
		regexp.QuoteMeta("scenario: forward DMA 255×4KiB node0->node2 (4-node ring), sampled every 1us"), ""},
}

// TestCLIHostTimedRuns runs hostTimedCases from the built binaries: each
// exits 0 with nothing on stderr and opens with its scenario line, and a
// Perfetto trace parses with both span slices and counter tracks.
func TestCLIHostTimedRuns(t *testing.T) {
	bin := buildCLIs(t, "tcatop", "tcabench")
	for _, tc := range hostTimedCases {
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
			if stderr.Len() != 0 {
				t.Fatalf("stderr not empty:\n%s", stderr.String())
			}
			first, _, _ := strings.Cut(string(stdout), "\n")
			if !regexp.MustCompile("^" + tc.first + "$").MatchString(first) {
				t.Fatalf("first line %q, want a match for %q", first, tc.first)
			}
			if tc.perfetto == "" {
				return
			}
			data, err := os.ReadFile(filepath.Join(dir, tc.perfetto))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Ph string `json:"ph"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &trace); err != nil {
				t.Fatalf("%s does not parse: %v", tc.perfetto, err)
			}
			phases := map[string]int{}
			for _, ev := range trace.TraceEvents {
				phases[ev.Ph]++
			}
			if phases["X"] == 0 || phases["C"] == 0 {
				t.Fatalf("%s: %d X slices and %d C counters, want both", tc.perfetto, phases["X"], phases["C"])
			}
		})
	}
}

// buildCLIs builds the named commands into a temporary directory and
// returns it. It skips the test in -short mode or without a go toolchain.
func buildCLIs(t *testing.T, names ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the CLIs")
	}
	// go test puts its own toolchain first on the PATH.
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not found")
	}
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "tca/cmd/"+n)
	}
	if out, err := exec.Command(goBin, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCLIRejectsNonPositiveCounts checks that sizes, counts and rounds
// below one, rings outside [2, 16], equal or out-of-ring endpoints,
// chains the modelled hardware cannot hold and unknown scenarios are
// usage errors: exit status 2 and one line on stderr, never a panic from
// the rig or an empty run.
func TestCLIRejectsNonPositiveCounts(t *testing.T) {
	bin := buildCLIs(t, "tcatrace", "tcapath", "tcatop", "tcafuzz")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"tcatrace", "-scenario", "dma", "-size", "0"}, "tcatrace: -size and -count must be positive"},
		{[]string{"tcatrace", "-scenario", "dma", "-size", "-4096"}, "tcatrace: -size and -count must be positive"},
		{[]string{"tcatrace", "-scenario", "dma", "-count", "0"}, "tcatrace: -size and -count must be positive"},
		{[]string{"tcatrace", "-fault", "linkdown:1e:12us", "-rounds", "0"}, "tcatrace: -rounds must be positive"},
		{[]string{"tcatrace", "-nodes", "1"}, "tcatrace: -nodes must be in [2, 16]"},
		{[]string{"tcatrace", "-src", "2", "-dst", "2"}, "tcatrace: need distinct -src/-dst inside the ring"},
		{[]string{"tcatrace", "-scenario", "bogus"}, `tcatrace: unknown scenario "bogus"`},
		{[]string{"tcatrace", "-scenario", "dma", "-fault", "linkdown:1e:12us"},
			`tcatrace: -fault is only supported for -scenario pingpong (got "dma")`},
		{[]string{"tcapath", "-rounds", "0"}, "tcapath: -rounds must be positive"},
		{[]string{"tcapath", "-scenario", "chain-dma", "-chains", "0"}, "tcapath: -chains must be positive"},
		{[]string{"tcapath", "-nodes", "17"}, "tcapath: -nodes must be in [2, 16]"},
		{[]string{"tcapath", "-src", "1", "-dst", "1"}, "tcapath: need distinct -src/-dst inside the ring"},
		{[]string{"tcatop", "-scenario", "forward", "-count", "0"}, "tcatop: -size and -count must be positive"},
		{[]string{"tcatop", "-scenario", "forward", "-size", "-1"}, "tcatop: -size and -count must be positive"},
		{[]string{"tcatop", "-scenario", "pingpong", "-rounds", "0"}, "tcatop: -rounds must be positive"},
		{[]string{"tcatop", "-interval", "0"}, "tcatop: -interval must be positive"},
		{[]string{"tcatop", "-nodes", "17"}, "tcatop: -nodes must be in [2, 16]"},
		{[]string{"tcatop", "-scenario", "bogus"}, `tcatop: unknown scenario "bogus"`},
		{[]string{"tcatop", "-count", "100000"}, "tcatop: -count must be at most 256 (the driver's descriptor table)"},
		{[]string{"tcatop", "-nodes", "16", "-size", "268435456", "-count", "256"},
			"tcatop: -size and -count span more than the 8GiB host block of a 16-node ring"},
		{[]string{"tcatrace", "-scenario", "dma", "-size", "1000000000"},
			"tcatrace: -size must be at most 256MiB (the PEACH2 internal memory)"},
		{[]string{"tcapath", "-scenario", "chain-dma", "-count", "257"},
			"tcapath: -count must be at most 256 (the driver's descriptor table)"},
		{[]string{"tcafuzz", "-corpus", "0"}, "tcafuzz: -corpus must be positive"},
		{[]string{"tcafuzz", "-corpus", "-5"}, "tcafuzz: -corpus must be positive"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, tc.args[0]), tc.args[1:]...)
			cmd.Dir = t.TempDir()
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit = %v, want status 2\n%s", err, stderr.String())
			}
			got := stderr.String()
			if strings.Contains(got, "panic") || strings.Contains(got, "goroutine") {
				t.Fatalf("stderr carries a panic:\n%s", got)
			}
			if got != tc.want+"\n" {
				t.Fatalf("stderr = %q, want the single line %q", got, tc.want)
			}
		})
	}
}
