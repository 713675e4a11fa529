// Command pablint runs the PAB domain lint suite (internal/lint) over
// the module: the syntactic tier (determinism, floatcmp, unitsafety,
// telemetryhygiene), the flow tier (nanguard) and the concurrency tier
// (lockdiscipline: defer-less unlock ladders) — the invariants the
// paper's reproducibility claims rest on, encoded as machine-checked
// rules.
//
//	go run ./cmd/pablint ./...            # whole module
//	go run ./cmd/pablint ./internal/...   # one subtree
//	go run ./cmd/pablint -only determinism,floatcmp ./...
//	go run ./cmd/pablint -exclude lockdiscipline ./...
//	go run ./cmd/pablint -list            # show the rules
//	go run ./cmd/pablint -json ./... > findings.json
//	go run ./cmd/pablint -dir internal/lint/testdata/src ./...  # fixtures
//
// With -json the machine-readable report goes to stdout and the
// human-readable findings to stderr (where CI problem matchers pick
// them up).
//
// Exit codes: 0 clean, 1 findings reported, 2 load/usage error.
// Suppress a finding with "//pablint:ignore <rule> <reason>" on (or
// directly above) the offending line; see DESIGN.md §11 and
// internal/lint/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pab/internal/lint"
)

const (
	exitClean    = 0
	exitFindings = 1
	exitError    = 2
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	only := flag.String("only", "", "comma-separated rule subset to run (default: all)")
	exclude := flag.String("exclude", "", "comma-separated rules to skip")
	list := flag.Bool("list", false, "list available rules and exit")
	dir := flag.String("dir", ".", "module root to analyze (patterns resolve relative to it)")
	jsonOut := flag.Bool("json", false, "write a JSON report to stdout (findings still print to stderr)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: pablint [-dir root] [-only r1,r2] [-exclude r1,r2] [-json] [-list] [patterns]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	cfg := lint.DefaultConfig()
	analyzers := lint.Analyzers(cfg)
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-18s %-12s %s\n", a.Name, a.Tier, a.Doc)
			targets := cfg.TargetsFor(a.Name)
			if targets == nil {
				fmt.Printf("%-18s %-12s targets: module-wide\n", "", "")
				continue
			}
			fmt.Printf("%-18s %-12s targets: %s\n", "", "", strings.Join(targets, ", "))
		}
		return exitClean
	}
	analyzers, err := selectAnalyzers(analyzers, *only, *exclude)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pablint: %v\n", err)
		return exitError
	}
	if len(analyzers) == 0 {
		fmt.Fprintln(os.Stderr, "pablint: rule selection left nothing to run")
		return exitError
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewModuleLoader(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pablint: %v\n", err)
		return exitError
	}
	seen := make(map[string]bool)
	var pkgs []*lint.Package
	for _, pat := range patterns {
		paths, err := loader.ModulePackages(pat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pablint: %v\n", err)
			return exitError
		}
		if len(paths) == 0 {
			fmt.Fprintf(os.Stderr, "pablint: no packages match %q\n", pat)
			return exitError
		}
		for _, p := range paths {
			if seen[p] {
				continue
			}
			seen[p] = true
			pkg, err := loader.Load(p)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pablint: %v\n", err)
				return exitError
			}
			pkgs = append(pkgs, pkg)
		}
	}

	prog := &lint.Program{Pkgs: pkgs, Loader: loader}
	all := lint.RunAll(prog, cfg, analyzers)

	// The failing set: active findings.
	failing := make([]lint.Finding, 0, len(all))
	for _, f := range all {
		if !f.Suppressed {
			failing = append(failing, f)
		}
	}

	// Human-readable findings: stdout normally, stderr under -json so
	// the report alone occupies stdout. Two rules reaching different
	// conclusions about one position print as one line each, but one
	// rule firing twice at a position (e.g. through two analysis paths)
	// is a single diagnostic.
	failing = lint.DedupeByPosRule(failing)
	text := os.Stdout
	if *jsonOut {
		text = os.Stderr
	}
	for _, f := range failing {
		fmt.Fprintln(text, f)
	}
	if *jsonOut {
		report := lint.NewJSONReport(loader.ModPath, loader.ModRoot, all)
		if err := report.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pablint: writing JSON: %v\n", err)
			return exitError
		}
	}
	if len(failing) > 0 {
		fmt.Fprintf(os.Stderr, "pablint: %d finding(s) in %d package(s)\n", len(failing), len(pkgs))
		return exitFindings
	}
	return exitClean
}

// selectAnalyzers applies -only/-exclude. Every name in either list
// must exist, so a typo fails loudly instead of silently running (or
// skipping) the wrong rules.
func selectAnalyzers(all []*lint.Analyzer, only, exclude string) ([]*lint.Analyzer, error) {
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	parse := func(spec string) ([]string, error) {
		if spec == "" {
			return nil, nil
		}
		var names []string
		for _, n := range strings.Split(spec, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if byName[n] == nil {
				return nil, fmt.Errorf("unknown rule %q (try -list)", n)
			}
			names = append(names, n)
		}
		return names, nil
	}
	onlyNames, err := parse(only)
	if err != nil {
		return nil, err
	}
	excludeNames, err := parse(exclude)
	if err != nil {
		return nil, err
	}
	keep := all
	if len(onlyNames) > 0 {
		keep = keep[:0:0]
		for _, n := range onlyNames {
			keep = append(keep, byName[n])
		}
	}
	if len(excludeNames) > 0 {
		skip := make(map[string]bool, len(excludeNames))
		for _, n := range excludeNames {
			skip[n] = true
		}
		var filtered []*lint.Analyzer
		for _, a := range keep {
			if !skip[a.Name] {
				filtered = append(filtered, a)
			}
		}
		keep = filtered
	}
	return keep, nil
}
