package bench

import (
	"bufio"
	"bytes"
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

// normalize keeps what a run computed and drops what names it: the
// "scenario:" title line of a transcript, a budget report's scenario and
// schema fields, and the report's per-transaction rows (the "txns" array
// that tca-critpath-report/2 added). Its digests
// (testdata/cli-normalized.sha256) were taken from the per-view commands
// tcatrace -view replaced, and tcatrace must reproduce them; cli.sha256
// pins every byte, titles and rows included.
func normalize(data []byte) []byte {
	var out []byte
	inTxns := false
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		switch {
		case inTxns:
			inTxns = !bytes.HasPrefix(line, []byte("  ]"))
		case bytes.HasPrefix(line, []byte(`  "txns": [`)):
			inTxns = true
		case bytes.HasPrefix(line, []byte("scenario: ")),
			bytes.HasPrefix(line, []byte(`  "scenario": `)),
			bytes.HasPrefix(line, []byte(`  "schema": `)):
		default:
			out = append(out, line...)
		}
	}
	return out
}

// cliCases are the CLI invocations CI and the docs rely on, every
// scenario flag spelled out. Each runs in a fresh directory; files names
// the relative output files hashed beside stdout. A case keeps the name of
// the per-view command it replaced (tcapath, tcatop), so its
// cli-normalized.sha256 line is that command's. Runs with -prof are
// absent: their host-time figures are measured, not simulated, so
// hostTimedCases covers them instead.
var cliCases = []struct {
	name  string
	args  []string
	files []string
}{
	{"tcatrace-pingpong", strings.Fields("tcatrace -view trace -scenario pingpong -nodes 4 -src 0 -dst 2 -rounds 1 " +
		"-size 4096 -count 8 -stride 0 -chains 1 -metrics table"), nil},
	{"tcatrace-pingpong-perfetto", strings.Fields("tcatrace -view trace -scenario pingpong -nodes 4 -src 0 -dst 2 -rounds 1 " +
		"-size 4096 -count 8 -stride 0 -chains 1 -metrics none -perfetto pingpong-trace.json"), []string{"pingpong-trace.json"}},
	{"tcatrace-forward-events", strings.Fields("tcatrace -view trace -scenario stream -nodes 8 -src 0 -dst 3 -rounds 1 " +
		"-size 4096 -count 8 -stride 0 -chains 1 -metrics table -events"), nil},
	{"tcatrace-dma", strings.Fields("tcatrace -view trace -scenario dma -nodes 2 -src 0 -dst 1 -rounds 1 " +
		"-size 4096 -count 8 -stride 8192 -chains 1 -metrics json"), nil},
	{"tcatrace-fault", strings.Fields("tcatrace -view trace -scenario pingpong -nodes 4 -src 0 -dst 2 -rounds 10 " +
		"-size 4096 -count 8 -stride 0 -chains 1 -metrics json -fault linkdown:1e:12us -seed 7"), nil},
	{"tcapath-pingpong", strings.Fields("tcatrace -view path -scenario pingpong -nodes 4 -src 0 -dst 2 -rounds 8 " +
		"-size 4096 -count 8 -stride 0 -chains 1 -metrics none -top 5 -check -json budget-pingpong.json"),
		[]string{"budget-pingpong.json"}},
	{"tcapath-chain-dma", strings.Fields("tcatrace -view path -scenario dma -nodes 2 -src 0 -dst 1 -rounds 1 " +
		"-size 4096 -count 8 -stride 0 -chains 4 -metrics none -top 5 -check -json budget-chain-dma.json"),
		[]string{"budget-chain-dma.json"}},
	{"tcatop-forward", strings.Fields("tcatrace -view top -scenario dma -nodes 4 -src 0 -dst 2 -rounds 1 " +
		"-size 4096 -count 255 -stride 0 -chains 1 -metrics none -top 8 -rows 20 -interval 1"), nil},
	{"tcatop-pingpong", strings.Fields("tcatrace -view top -scenario pingpong -nodes 4 -src 0 -dst 2 -rounds 50 " +
		"-size 4096 -count 8 -stride 0 -chains 1 -metrics none -top 8 -rows 20 -interval 1"), nil},
}

// TestCLITranscriptsIdentical builds tcatrace and byte-pins what it prints
// (stdout and output files) for every invocation in cliCases, both as
// printed and normalized.
func TestCLITranscriptsIdentical(t *testing.T) {
	bin := buildCLIs(t, "tcatrace")
	want := readDigests(t, filepath.Join("testdata", "cli.sha256"))
	wantContent := readDigests(t, filepath.Join("testdata", "cli-normalized.sha256"))
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
			checkDigest(t, wantContent, tc.name, normalize(stdout))
			for _, f := range tc.files {
				data, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				checkDigest(t, want, tc.name+":"+f, data)
				checkDigest(t, wantContent, tc.name+":"+f, normalize(data))
			}
		})
	}
}

// hostTimedCases are the scenario invocations cliCases leaves out because
// they print measured host time; the tcatrace cases keep the names of the
// commands they replaced (tcabench -perfetto, tcatop -prof). first is a
// pattern for the first stdout line: the simulated scenario title, or for
// -prof the headline with its host-measured figures wildcarded. perfetto
// names a trace file the run must write.
var hostTimedCases = []struct {
	name     string
	args     []string
	first    string
	perfetto string
}{
	{"tcabench-perfetto", strings.Fields("tcatrace -view top -scenario dma -nodes 4 -src 0 -dst 2 " +
		"-size 4096 -count 64 -stride 0 -chains 1 -interval 1 -prof -perfetto forward-trace.json"),
		regexp.QuoteMeta("scenario: dma 1×(64×4KiB, stride 4KiB) node0->node2 (4-node ring)"),
		"forward-trace.json"},
	{"tcabench-prof-all", []string{"tcabench", "-prof", "all"},
		`pingpong: \S+ events/s \(6400 events in \S+, \S+ allocs/event, \d+ GC cycles, queue high-water 2\)`, ""},
	{"tcatop-prof", strings.Fields("tcatrace -view top -scenario dma -nodes 4 -src 0 -dst 2 " +
		"-size 4096 -count 255 -stride 0 -chains 1 -interval 1 -prof"),
		regexp.QuoteMeta("scenario: dma 1×(255×4KiB, stride 4KiB) node0->node2 (4-node ring)"), ""},
}

// TestCLIHostTimedRuns runs hostTimedCases from the built binaries: each
// exits 0 with nothing on stderr and opens with its scenario line, and a
// Perfetto trace parses with both span slices and counter tracks.
func TestCLIHostTimedRuns(t *testing.T) {
	bin := buildCLIs(t, "tcatrace", "tcabench")
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

// TestCLITopViewSkipsSpans runs the top view on a chain long enough to
// overflow the span ring. The view prints sampled series only, so it
// records no spans and warns about no eviction; asked for a trace file it
// records them again, and the overflow warning returns.
func TestCLITopViewSkipsSpans(t *testing.T) {
	bin := buildCLIs(t, "tcatrace")
	args := strings.Fields("-view top -scenario dma -nodes 16 -src 0 -dst 8 -count 255")
	for _, tc := range []struct {
		extra []string
		warn  bool
	}{
		{nil, false},
		{[]string{"-perfetto", "trace.json"}, true},
	} {
		cmd := exec.Command(filepath.Join(bin, "tcatrace"), append(args, tc.extra...)...)
		cmd.Dir = t.TempDir()
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.extra, err, stderr.String())
		}
		if !strings.HasPrefix(string(stdout), "scenario: dma 1×(255×4KiB, stride 4KiB) node0->node8 (16-node ring)\n") {
			t.Fatalf("%v: unexpected stdout:\n%s", tc.extra, stdout)
		}
		if warned := strings.Contains(stderr.String(), "span ring evicted"); warned != tc.warn || !tc.warn && stderr.Len() != 0 {
			t.Fatalf("%v: stderr %q, want eviction warning %t and nothing else", tc.extra, stderr.String(), tc.warn)
		}
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
// chains the modelled hardware cannot hold, negative strides and list
// bounds, a sampling interval below one simulated picosecond and unknown
// scenarios or views are usage errors: exit status 2 and one line on
// stderr, never a panic from the rig or an empty run. A case ported from
// tcapath or tcatop is named by the invocation it replaced (was).
func TestCLIRejectsNonPositiveCounts(t *testing.T) {
	bin := buildCLIs(t, "tcatrace", "tcafuzz")
	cases := []struct {
		was  string
		args []string
		want string
	}{
		{"", []string{"tcatrace", "-scenario", "dma", "-size", "0"}, "tcatrace: -size and -count must be positive"},
		{"", []string{"tcatrace", "-scenario", "dma", "-size", "-4096"}, "tcatrace: -size and -count must be positive"},
		{"", []string{"tcatrace", "-scenario", "dma", "-count", "0"}, "tcatrace: -size and -count must be positive"},
		{"", []string{"tcatrace", "-fault", "linkdown:1e:12us", "-rounds", "0"}, "tcatrace: -rounds must be positive"},
		{"", []string{"tcatrace", "-nodes", "1"}, "tcatrace: -nodes must be in [2, 16]"},
		{"", []string{"tcatrace", "-src", "2", "-dst", "2"}, "tcatrace: need distinct -src/-dst inside the ring"},
		{"", []string{"tcatrace", "-scenario", "bogus"}, `tcatrace: unknown scenario "bogus"`},
		{"", []string{"tcatrace", "-scenario", "forward"}, `tcatrace: unknown scenario "forward"`},
		{"", []string{"tcatrace", "-view", "bogus"}, `tcatrace: unknown view "bogus"`},
		{"", []string{"tcatrace", "-scenario", "dma", "-fault", "linkdown:1e:12us"},
			`tcatrace: -fault is only supported for -scenario pingpong (got "dma")`},
		{"", []string{"tcatrace", "-scenario", "dma", "-size", "1000000000"},
			"tcatrace: -size must be at most 256MiB (the PEACH2 internal memory)"},
		{"", []string{"tcatrace", "-view", "path", "-top", "-1"}, "tcatrace: -top must not be negative"},
		{"", []string{"tcatrace", "-scenario", "dma", "-stride", "-4096"}, "tcatrace: -stride must not be negative"},
		{"", []string{"tcatrace", "-view", "top", "-interval", "1e-9"}, "tcatrace: -interval must be positive"},
		{"tcapath -rounds 0", []string{"tcatrace", "-view", "path", "-rounds", "0"}, "tcatrace: -rounds must be positive"},
		{"tcapath -scenario chain-dma -chains 0", []string{"tcatrace", "-view", "path", "-scenario", "dma", "-chains", "0"},
			"tcatrace: -chains must be positive"},
		{"tcapath -nodes 17", []string{"tcatrace", "-view", "path", "-nodes", "17"}, "tcatrace: -nodes must be in [2, 16]"},
		{"tcapath -src 1 -dst 1", []string{"tcatrace", "-view", "path", "-src", "1", "-dst", "1"},
			"tcatrace: need distinct -src/-dst inside the ring"},
		{"tcapath -scenario chain-dma -count 257", []string{"tcatrace", "-view", "path", "-scenario", "dma", "-count", "257"},
			"tcatrace: -count must be at most 256 (the driver's descriptor table)"},
		{"tcatop -scenario forward -count 0", []string{"tcatrace", "-view", "top", "-scenario", "dma", "-count", "0"},
			"tcatrace: -size and -count must be positive"},
		{"tcatop -scenario forward -size -1", []string{"tcatrace", "-view", "top", "-scenario", "dma", "-size", "-1"},
			"tcatrace: -size and -count must be positive"},
		{"tcatop -scenario pingpong -rounds 0", []string{"tcatrace", "-view", "top", "-scenario", "pingpong", "-rounds", "0"},
			"tcatrace: -rounds must be positive"},
		{"tcatop -interval 0", []string{"tcatrace", "-view", "top", "-interval", "0"}, "tcatrace: -interval must be positive"},
		{"tcatop -nodes 17", []string{"tcatrace", "-view", "top", "-nodes", "17"}, "tcatrace: -nodes must be in [2, 16]"},
		{"tcatop -scenario bogus", []string{"tcatrace", "-view", "top", "-scenario", "bogus"}, `tcatrace: unknown scenario "bogus"`},
		{"tcatop -count 100000", []string{"tcatrace", "-view", "top", "-scenario", "dma", "-count", "100000"},
			"tcatrace: -count must be at most 256 (the driver's descriptor table)"},
		{"tcatop -nodes 16 -size 268435456 -count 256",
			[]string{"tcatrace", "-view", "top", "-scenario", "dma", "-nodes", "16", "-size", "268435456", "-count", "256"},
			"tcatrace: -size and -count span more than the 8GiB host block of a 16-node ring"},
		{"", []string{"tcafuzz", "-corpus", "0"}, "tcafuzz: -corpus must be positive"},
		{"", []string{"tcafuzz", "-corpus", "-5"}, "tcafuzz: -corpus must be positive"},
	}
	for _, tc := range cases {
		name := tc.was
		if name == "" {
			name = strings.Join(tc.args, " ")
		}
		t.Run(name, func(t *testing.T) {
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
