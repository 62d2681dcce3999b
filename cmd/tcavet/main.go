// Command tcavet runs the project's custom static-analysis suite — the
// invariants that make the simulator's paper reproductions trustworthy
// but that go vet cannot see:
//
//	simdeterminism  no wall clock, no unseeded randomness, no
//	                order-sensitive work inside map iteration
//	unittypes       no raw conversions mixing sim.Time / units.* types,
//	                no float64(unit) outside stats/formatting code
//	panicstyle      hardware-model panics carry the component name
//	nilprobe        obsv probe/sampler/series methods nil-guard so the
//	                disabled path stays a zero-alloc no-op
//	heapsafety      engine callbacks spawn no goroutines, never re-enter
//	                the engine, and capture no loop variables
//	poolsafety      //tca:pooled objects drawn with Get reach exactly one
//	                Release; no use after release, no double release, no
//	                un-Pinned escape into fields or closures
//	sharedstate     component fields and package-level vars are written
//	                from one component domain only (or under a lock)
//	lockorder       nested mutexes follow one global acquisition order;
//	                fields written under a lock are not read without it
//	deadcode        every package-level name, exported or not, has a
//	                non-test reference somewhere in the module
//
// poolsafety, sharedstate and lockorder use cross-package facts: a marker
// or edge discovered in a type's defining package travels with it into
// every importer, so the whole module is loaded in dependency order and
// fact-producing analyzers run over all of it even when only a subset of
// packages is requested. deadcode runs once, after the per-package
// passes, over the whole module.
//
// Usage:
//
//	go run ./cmd/tcavet ./...
//	go run ./cmd/tcavet -list
//	go run ./cmd/tcavet -json ./... > tcavet.json
//	go run ./cmd/tcavet -github ./internal/peach2 ./internal/pcie
//
// Exit status: 0 clean, 1 diagnostics found, 2 load/usage error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"tca/internal/analysis/deadcode"
	"tca/internal/analysis/framework"
	"tca/internal/analysis/heapsafety"
	"tca/internal/analysis/lockorder"
	"tca/internal/analysis/nilprobe"
	"tca/internal/analysis/panicstyle"
	"tca/internal/analysis/poolsafety"
	"tca/internal/analysis/sharedstate"
	"tca/internal/analysis/simdeterminism"
	"tca/internal/analysis/unittypes"
)

var suite = []*framework.Analyzer{
	simdeterminism.Analyzer,
	unittypes.Analyzer,
	panicstyle.Analyzer,
	nilprobe.Analyzer,
	heapsafety.Analyzer,
	poolsafety.Analyzer,
	sharedstate.Analyzer,
	lockorder.Analyzer,
	deadcode.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	only := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON report on stdout")
	github := flag.Bool("github", false, "emit GitHub Actions ::error annotations alongside the plain report")
	flag.Parse()

	if *list {
		for _, a := range suite {
			fmt.Printf("%s\n%s\n\n", a.Name, indent(a.Doc))
		}
		return
	}

	active := suite
	if *only != "" {
		byName := map[string]*framework.Analyzer{}
		for _, a := range suite {
			byName[a.Name] = a
		}
		active = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "tcavet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			active = append(active, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, modPath, err := findModule()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcavet: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := framework.LoadModule(root, modPath, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcavet: %v\n", err)
		os.Exit(2)
	}

	// Fact-producing analyzers must see every package (a //tca:pooled
	// marker lives in the defining package, not the one being checked),
	// so the suite runs over the whole module in dependency order and
	// diagnostics are reported only for the packages that matched the
	// command-line patterns.
	suite := framework.NewSuite(active)
	report := []jsonDiagnostic{} // non-nil so -json always emits an array
	add := func(fset *token.FileSet, diags []framework.Diagnostic) {
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			rel, relErr := filepath.Rel(root, pos.Filename)
			if relErr != nil {
				rel = pos.Filename
			}
			report = append(report, jsonDiagnostic{
				File:     filepath.ToSlash(rel),
				Line:     pos.Line,
				Column:   pos.Column,
				Analyzer: d.Analyzer.Name,
				Message:  d.Message,
			})
		}
	}
	for _, pkg := range pkgs {
		diags, err := suite.Run(pkg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcavet: %v\n", err)
			os.Exit(2)
		}
		if pkg.Matched {
			add(pkg.Fset, diags)
		}
	}
	// Module analyzers run once more over everything; RunModule keeps
	// only the diagnostics in matched packages.
	diags, err := suite.RunModule(pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcavet: %v\n", err)
		os.Exit(2)
	}
	if len(pkgs) > 0 {
		add(pkgs[0].Fset, diags)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonReport{Diagnostics: report, Count: len(report)}); err != nil {
			fmt.Fprintf(os.Stderr, "tcavet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range report {
			fmt.Printf("%s:%d:%d: %s: %s\n", d.File, d.Line, d.Column, d.Analyzer, d.Message)
		}
	}
	if *github {
		for _, d := range report {
			// ::error annotations surface on the PR diff; the message is
			// escaped per the workflow-command rules.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=tcavet/%s::%s\n",
				d.File, d.Line, d.Column, d.Analyzer, githubEscape(d.Message))
		}
	}
	if len(report) > 0 {
		fmt.Fprintf(os.Stderr, "tcavet: %d diagnostic(s)\n", len(report))
		os.Exit(1)
	}
}

// jsonReport is the machine-readable output of -json, consumed by CI to
// attach the report as a build artifact.
type jsonReport struct {
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
	Count       int              `json:"count"`
}

type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// githubEscape encodes the characters the workflow-command parser treats
// specially in annotation messages.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// findModule locates go.mod upward from the working directory and reads
// the module path from it.
func findModule() (root, modPath string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		modFile := filepath.Join(dir, "go.mod")
		if _, statErr := os.Stat(modFile); statErr == nil {
			path, parseErr := modulePath(modFile)
			if parseErr != nil {
				return "", "", parseErr
			}
			return dir, path, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

func modulePath(modFile string) (string, error) {
	f, err := os.Open(modFile)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module directive", modFile)
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimSpace(s), "\n", "\n    ")
}
