// Package lint is pablint: a domain-aware static-analysis suite for the
// PAB reproduction, built only on the standard library's go/ast,
// go/parser and go/types (the repo stays dependency-free).
//
// The Go compiler cannot check the properties the paper's headline
// numbers rest on — bit-identical same-seed runs, unit-consistent
// physics, a stable telemetry namespace, unlocks that an early return
// cannot skip — so this package encodes them as analyzers, the way
// large Go codebases ship custom vet passes:
//
//   - determinism       — no wall clock, no global math/rand, no
//     map-iteration-order-dependent results in the deterministic
//     packages (fault, channel, core, phy, dsp, frame, mac);
//   - floatcmp          — no raw ==/!= between floats outside approved
//     epsilon helpers (exact-zero sentinel checks excepted);
//   - unitsafety        — exported physics functions must not take runs
//     of adjacent swap-prone bare float64 parameters without
//     unit-bearing names or internal/units types;
//   - telemetryhygiene  — metric names are compile-time constants
//     registered in the telemetry package's name registry;
//   - nanguard          — divisions and math.Log*/math.Sqrt fed by
//     unguarded external inputs (NaN/Inf sources), built on the
//     dataflow engine in dataflow.go;
//   - lockdiscipline    — defer-less unlock ladders: two or more manual
//     Unlock paths for one mutex and no deferred unlock.
//
// Findings can be suppressed, with a mandatory reason, by a
// "//pablint:ignore <rules> <reason>" comment on the offending line,
// on the line directly above it, or — before the package clause — for
// a whole file. Machine consumers get a stable JSON schema (json.go).
// See DESIGN.md §11.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
	// Suppressed marks a finding covered by a reasoned pablint:ignore
	// directive; SuppressReason carries the directive's reason. RunAll
	// keeps suppressed findings (the JSON output reports them), Run
	// drops them.
	Suppressed     bool
	SuppressReason string
}

// String formats a finding the way compilers do: file:line:col: rule: msg.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
	if f.Suppressed {
		s += fmt.Sprintf(" [suppressed: %s]", f.SuppressReason)
	}
	return s
}

// Pass is the per-package unit of work handed to an analyzer: one
// type-checked package plus a sink for findings.
type Pass struct {
	Pkg *Package
	// Prog exposes every package in the run for whole-program rules
	// (telemetryhygiene's registration check).
	Prog *Program
	Cfg  *Config

	fset     *token.FileSet
	findings *[]Finding
	rule     string
}

// Reportf records a finding for the current analyzer at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:  p.fset.Position(pos),
		Rule: p.rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Tier labels for Analyzer.Tier — the three families the suite grew
// in, in the order `pablint -list` prints them.
const (
	TierSyntactic   = "syntactic"
	TierFlow        = "flow"
	TierConcurrency = "concurrency"
)

// Analyzer is one named rule.
type Analyzer struct {
	Name string
	Doc  string
	// Tier groups the rule into one of the suite's analysis families
	// (Tier* constants); `pablint -list` and CI tier selection key on
	// it.
	Tier string
	Run  func(*Pass)
}

// Program is the whole set of packages in one run.
type Program struct {
	Pkgs []*Package
	// Loader gives whole-program rules access to packages outside the
	// requested pattern (e.g. the telemetry name registry).
	Loader *Loader
}

// Config parameterises the analyzers so the same rules run over the
// real module and over test fixtures.
type Config struct {
	// DeterministicPkgs are import paths whose results must be pure
	// functions of their seeds (determinism rule).
	DeterministicPkgs []string
	// PhysicsPkgs are import paths subject to the unitsafety rule.
	PhysicsPkgs []string
	// FlowPkgs are import paths subject to the flow-sensitive nanguard
	// rule.
	FlowPkgs []string
	// UnitsPkg is the import path of the units package; nanguard reads
	// its Clamp's lower bound as a sign guard.
	UnitsPkg string
	// TelemetryPkg is the import path of the metrics registry package;
	// its exported string-typed constants form the registered metric
	// namespace.
	TelemetryPkg string
	// EpsilonHelpers maps import path -> function names whose bodies
	// may compare floats exactly (they implement the tolerance).
	EpsilonHelpers map[string][]string
}

// DefaultConfig returns the configuration for the pab module itself.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs: []string{
			"pab/internal/fault",
			"pab/internal/channel",
			"pab/internal/core",
			"pab/internal/phy",
			"pab/internal/dsp",
			"pab/internal/frame",
			"pab/internal/mac",
			"pab/internal/scenario",
			"pab/internal/stream",
		},
		PhysicsPkgs: []string{
			"pab/internal/piezo",
			"pab/internal/channel",
			"pab/internal/acoustics",
			"pab/internal/circuit",
			"pab/internal/rectifier",
		},
		FlowPkgs: []string{
			"pab/internal/piezo",
			"pab/internal/channel",
			"pab/internal/acoustics",
			"pab/internal/circuit",
			"pab/internal/rectifier",
			"pab/internal/phy",
			"pab/internal/hydrophone",
			"pab/internal/projector",
			"pab/internal/units",
		},
		UnitsPkg:     "pab/internal/units",
		TelemetryPkg: "pab/internal/telemetry",
		EpsilonHelpers: map[string][]string{
			"pab/internal/units": {"ApproxEqual"},
		},
	}
}

// TargetsFor returns the config package set a rule runs over, for
// `pablint -list`. Rules without a configured scope run module-wide.
func (cfg *Config) TargetsFor(rule string) []string {
	switch rule {
	case "determinism":
		return cfg.DeterministicPkgs
	case "unitsafety":
		return cfg.PhysicsPkgs
	case "nanguard":
		return cfg.FlowPkgs
	}
	return nil // module-wide
}

// Analyzers returns the full suite configured by cfg.
func Analyzers(cfg *Config) []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(),
		FloatCmpAnalyzer(),
		UnitSafetyAnalyzer(),
		TelemetryHygieneAnalyzer(),
		NanGuardAnalyzer(),
		LockDisciplineAnalyzer(),
	}
}

// hasPath reports whether path is in list.
func hasPath(list []string, path string) bool {
	for _, p := range list {
		if p == path {
			return true
		}
	}
	return false
}

// Run executes every analyzer over every package, applies suppression
// comments, and returns the surviving findings sorted by position.
// Malformed suppressions (no reason given) are themselves findings.
func Run(prog *Program, cfg *Config, analyzers []*Analyzer) []Finding {
	all := RunAll(prog, cfg, analyzers)
	var out []Finding
	for _, f := range all {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// RunAll is Run without the suppression filter: suppressed findings
// are kept, marked with the directive's reason, so machine consumers
// (the JSON output, baselines) see the whole picture.
//
// Packages × analyzers fan out over a bounded worker pool; every task
// writes into its own slot, so the merged output is deterministic
// regardless of scheduling, then findings are sorted by position and
// deduplicated (two analyzers reporting the identical message at the
// identical position collapse to one finding).
func RunAll(prog *Program, cfg *Config, analyzers []*Analyzer) []Finding {
	type task struct {
		pkg *Package
		a   *Analyzer
	}
	var tasks []task
	for _, pkg := range prog.Pkgs {
		for _, a := range analyzers {
			tasks = append(tasks, task{pkg, a})
		}
	}

	results := make([][]Finding, len(tasks))
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		go func(i int, t task) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var fs []Finding
			t.a.Run(&Pass{
				Pkg:      t.pkg,
				Prog:     prog,
				Cfg:      cfg,
				fset:     prog.Loader.Fset,
				findings: &fs,
				rule:     t.a.Name,
			})
			results[i] = fs
		}(i, t)
	}
	wg.Wait()

	var raw []Finding
	for _, fs := range results {
		raw = append(raw, fs...)
	}

	sup, bad := collectSuppressions(prog)
	for i := range raw {
		if reason, ok := sup.match(raw[i]); ok {
			raw[i].Suppressed = true
			raw[i].SuppressReason = reason
		}
	}
	raw = append(raw, bad...)
	sortFindings(raw)
	return dedupeFindings(raw)
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// dedupeFindings collapses findings with identical position and
// message (two rules arriving at the same conclusion) down to the
// first — after sorting, the one with the alphabetically first rule.
// Input must be sorted by position.
func dedupeFindings(fs []Finding) []Finding {
	out := fs[:0]
	seen := make(map[string]bool)
	var prevFile string
	var prevLine, prevCol int
	for _, f := range fs {
		if f.Pos.Filename != prevFile || f.Pos.Line != prevLine || f.Pos.Column != prevCol {
			clear(seen)
			prevFile, prevLine, prevCol = f.Pos.Filename, f.Pos.Line, f.Pos.Column
		}
		if seen[f.Msg] {
			continue
		}
		seen[f.Msg] = true
		out = append(out, f)
	}
	return out
}

// DedupeByPosRule collapses findings sharing (position, rule) to the
// first occurrence, keeping order. The pipeline-level dedupe keys on
// (position, message), which lets one rule that reaches the same
// conclusion through two analysis paths — with two differently-worded
// messages — print twice; the drivers' text output uses this stricter
// collapse so each (site, rule) pair is a single diagnostic. fs must be
// sorted (RunAll/Run output is).
func DedupeByPosRule(fs []Finding) []Finding {
	out := make([]Finding, 0, len(fs))
	seen := make(map[string]bool)
	var prevFile string
	var prevLine, prevCol int
	for _, f := range fs {
		if f.Pos.Filename != prevFile || f.Pos.Line != prevLine || f.Pos.Column != prevCol {
			clear(seen)
			prevFile, prevLine, prevCol = f.Pos.Filename, f.Pos.Line, f.Pos.Column
		}
		if seen[f.Rule] {
			continue
		}
		seen[f.Rule] = true
		out = append(out, f)
	}
	return out
}

// ignorePrefix introduces a suppression comment.
const ignorePrefix = "//pablint:ignore"

// directive is one parsed pablint:ignore comment.
type directive struct {
	rules  []string
	reason string
}

// parseIgnoreDirective parses the text of a "//pablint:ignore
// <rule>[,<rule>] <reason>" comment. isDirective is false when the
// comment is not an ignore directive at all (including
// "//pablint:ignoreX", which is some other word); malformed is true
// for a directive missing its rule list or reason — those are
// reported, never honoured. On success rules is non-empty, every rule
// is non-empty, and reason is a non-empty single-spaced string.
func parseIgnoreDirective(text string) (rules []string, reason string, isDirective, malformed bool) {
	rest, ok := strings.CutPrefix(text, ignorePrefix)
	if !ok {
		return nil, "", false, false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, "", false, false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil, "", true, true
	}
	for _, r := range strings.Split(fields[0], ",") {
		if r == "" {
			return nil, "", true, true
		}
		rules = append(rules, r)
	}
	return rules, strings.Join(fields[1:], " "), true, false
}

// suppressions indexes ignore directives by file.
type suppressions struct {
	// line maps file -> line -> directives on that line.
	line map[string]map[int][]directive
	// file maps file -> whole-file directives (written before, or
	// trailing, the package clause).
	file map[string][]directive
}

// match reports whether f is covered by a directive and returns the
// directive's reason.
func (s *suppressions) match(f Finding) (string, bool) {
	if reason, ok := matchRule(s.file[f.Pos.Filename], f.Rule); ok {
		return reason, true
	}
	byLine := s.line[f.Pos.Filename]
	if byLine == nil {
		return "", false
	}
	// A comment suppresses findings on its own line and on the line
	// directly below it (the usual "comment above the statement" form).
	if reason, ok := matchRule(byLine[f.Pos.Line], f.Rule); ok {
		return reason, true
	}
	return matchRule(byLine[f.Pos.Line-1], f.Rule)
}

func matchRule(dirs []directive, rule string) (string, bool) {
	for _, d := range dirs {
		for _, r := range d.rules {
			if r == rule || r == "all" {
				return d.reason, true
			}
		}
	}
	return "", false
}

// collectSuppressions scans every file's comments for pablint:ignore
// directives. A directive without a reason is reported as a finding of
// rule "suppression" rather than honoured — suppressions must say why.
// Directives before the package clause — or trailing it — are
// file-wide, and in particular cover findings reported at the package
// clause itself; anything later is line-scoped.
func collectSuppressions(prog *Program) (*suppressions, []Finding) {
	s := &suppressions{
		line: make(map[string]map[int][]directive),
		file: make(map[string][]directive),
	}
	var bad []Finding
	fset := prog.Loader.Fset
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			pkgLine := fset.Position(f.Package).Line
			fileName := fset.Position(f.Package).Filename
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rules, reason, isDirective, malformed := parseIgnoreDirective(c.Text)
					if !isDirective {
						continue
					}
					pos := fset.Position(c.Pos())
					if malformed {
						bad = append(bad, Finding{
							Pos:  pos,
							Rule: "suppression",
							Msg:  "pablint:ignore needs a rule list and a reason: //pablint:ignore <rule>[,<rule>] <why>",
						})
						continue
					}
					d := directive{rules: rules, reason: reason}
					if pos.Line <= pkgLine {
						s.file[fileName] = append(s.file[fileName], d)
						continue
					}
					if s.line[fileName] == nil {
						s.line[fileName] = make(map[int][]directive)
					}
					s.line[fileName][pos.Line] = append(s.line[fileName][pos.Line], d)
				}
			}
		}
	}
	return s, bad
}

// ---------------------------------------------------------------------------
// Shared AST/type helpers used by several analyzers
// ---------------------------------------------------------------------------

// pkgFunc resolves a call to (package path, function name) when the
// callee is a selector on an imported package (time.Now, rand.Intn,
// telemetry.Inc). ok is false for method calls and locals.
func pkgFunc(pkg *Package, call *ast.CallExpr) (path, name string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	ident, okIdent := sel.X.(*ast.Ident)
	if !okIdent {
		return "", "", false
	}
	pn, okPkg := pkg.Info.Uses[ident].(*types.PkgName)
	if !okPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// rootIdent unwraps index/selector/star/paren chains to the base
// identifier: a.b[i].c -> a. Returns nil when the base is not a plain
// identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
