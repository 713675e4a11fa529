package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureProgram loads the testdata module (which reuses the pab
// module path so DefaultConfig applies verbatim).
func fixtureProgram(tb testing.TB) (*Program, *Config) {
	tb.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		tb.Fatal(err)
	}
	prog, cfg, err := loadProgram(root)
	if err != nil {
		tb.Fatal(err)
	}
	return prog, cfg
}

// loadProgram loads every package of the module rooted at root.
func loadProgram(root string) (*Program, *Config, error) {
	ld, err := NewModuleLoader(root)
	if err != nil {
		return nil, nil, err
	}
	paths, err := ld.ModulePackages("./...")
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no packages found under %s", root)
	}
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := ld.Load(p)
		if err != nil {
			return nil, nil, fmt.Errorf("loading %s: %w", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return &Program{Pkgs: pkgs, Loader: ld}, DefaultConfig(), nil
}

// runFixtures runs the full suite over the fixture module.
func runFixtures(t *testing.T) ([]Finding, string) {
	t.Helper()
	prog, cfg := fixtureProgram(t)
	return Run(prog, cfg, Analyzers(cfg)), prog.Loader.ModRoot
}

// expectation is one parsed `// want "regex"` comment; rule names the
// rule of the finding that matched it, once one has.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	rule string
}

var quotedRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// collectWants scans every fixture file for `// want "re" ["re" ...]`
// trailing comments; each quoted pattern expects one finding on that
// line.
func collectWants(t *testing.T, root string) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, spec, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, m := range quotedRe.FindAllStringSubmatch(spec, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", p, i+1, m[1], err)
				}
				wants = append(wants, &expectation{file: p, line: i + 1, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatal("no // want expectations found in fixtures")
	}
	return wants
}

// matchWants pairs each finding with the first unmatched want on its
// line whose pattern matches its message, and returns the findings no
// want declared. Suppression-syntax findings are skipped.
func matchWants(findings []Finding, wants []*expectation) (unexpected []Finding) {
	for _, f := range findings {
		if f.Rule == "suppression" {
			continue
		}
		matched := false
		for _, w := range wants {
			if w.rule != "" || w.file != f.Pos.Filename || w.line != f.Pos.Line {
				continue
			}
			if w.re.MatchString(f.Msg) {
				w.rule = f.Rule
				matched = true
				break
			}
		}
		if !matched {
			unexpected = append(unexpected, f)
		}
	}
	return unexpected
}

// TestGoldenFixtures asserts the suite produces exactly the findings
// the fixture tree's // want comments declare — no more, no fewer.
// Suppression-syntax findings are asserted separately.
func TestGoldenFixtures(t *testing.T) {
	findings, root := runFixtures(t)
	wants := collectWants(t, root)
	for _, f := range matchWants(findings, wants) {
		t.Errorf("unexpected finding: %s", f)
	}
	for _, w := range wants {
		if w.rule == "" {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestSuppression asserts both halves of the directive contract: a
// reasoned //pablint:ignore silences its rule (covered by the golden
// test: the suppressed line carries no want), and a reason-less one is
// reported as a finding of rule "suppression" at the directive's line.
func TestSuppression(t *testing.T) {
	findings, root := runFixtures(t)

	supFile := filepath.Join(root, "internal", "mac", "suppress.go")
	data, err := os.ReadFile(supFile)
	if err != nil {
		t.Fatal(err)
	}
	badLine := 0
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "//pablint:ignore floatcmp" {
			badLine = i + 1
			break
		}
	}
	if badLine == 0 {
		t.Fatal("reason-less directive not found in suppress.go")
	}

	var sups []Finding
	for _, f := range findings {
		if f.Rule == "suppression" {
			sups = append(sups, f)
		}
	}
	if len(sups) != 1 {
		t.Fatalf("want exactly 1 suppression finding, got %d: %v", len(sups), sups)
	}
	if sups[0].Pos.Filename != supFile || sups[0].Pos.Line != badLine {
		t.Errorf("suppression finding at %s:%d, want %s:%d",
			sups[0].Pos.Filename, sups[0].Pos.Line, supFile, badLine)
	}
}

// TestRuleInventory pins the suite's rule set: adding or deleting a
// rule is a deliberate change that must update this list, the docs and
// the fixtures together.
func TestRuleInventory(t *testing.T) {
	want := []string{
		"determinism", "floatcmp", "unitsafety", "telemetryhygiene",
		"nanguard", "lockdiscipline",
	}
	var got []string
	for _, a := range Analyzers(DefaultConfig()) {
		got = append(got, a.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Analyzers(DefaultConfig()) = %v, want %v", got, want)
	}
}

// TestRuleCoverage asserts every analyzer in the suite matches at least
// one // want on the fixtures, so a rule that silently stops matching
// (or never had a fixture) cannot pass the golden test by matching
// zero wants.
func TestRuleCoverage(t *testing.T) {
	findings, root := runFixtures(t)
	wants := collectWants(t, root)
	matchWants(findings, wants)
	covered := make(map[string]bool)
	for _, w := range wants {
		covered[w.rule] = true
	}
	for _, a := range Analyzers(DefaultConfig()) {
		if !covered[a.Name] {
			t.Errorf("rule %s matched no // want in the fixtures", a.Name)
		}
	}
}

// TestFileWideSuppression covers the directive-placement contract: a
// directive before the package clause is file-wide, so it silences the
// unitsafety finding inside filewide.go AND would cover a finding
// reported at the package clause line itself.
func TestFileWideSuppression(t *testing.T) {
	prog, cfg := fixtureProgram(t)
	all := RunAll(prog, cfg, Analyzers(cfg))

	file := filepath.Join(prog.Loader.ModRoot, "internal", "piezo", "filewide.go")
	found := false
	for _, f := range all {
		if f.Pos.Filename != file {
			continue
		}
		if f.Rule != "unitsafety" {
			t.Errorf("unexpected %s finding in filewide.go: %s", f.Rule, f)
			continue
		}
		found = true
		if !f.Suppressed {
			t.Errorf("unitsafety finding in filewide.go not suppressed: %s", f)
		}
		if f.SuppressReason == "" {
			t.Errorf("suppressed finding lost its reason: %s", f)
		}
	}
	if !found {
		t.Fatal("expected a suppressed unitsafety finding in filewide.go")
	}

	// The package clause itself must be covered by the directive above
	// it — this is the regression the pos.Line <= pkgLine rule fixes.
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	pkgLine := 0
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "package ") {
			pkgLine = i + 1
			break
		}
	}
	if pkgLine == 0 {
		t.Fatal("no package clause in filewide.go")
	}
	sup, _ := collectSuppressions(prog)
	synthetic := Finding{
		Pos:  token.Position{Filename: file, Line: pkgLine, Column: 1},
		Rule: "unitsafety",
		Msg:  "synthetic finding at the package clause",
	}
	if _, ok := sup.match(synthetic); !ok {
		t.Errorf("file-level directive does not cover a finding at the package clause (line %d)", pkgLine)
	}
}

// TestDedupeFindings exercises the identical-position-and-message
// collapse on synthetic findings.
func TestDedupeFindings(t *testing.T) {
	pos := token.Position{Filename: "a.go", Line: 3, Column: 7}
	fs := []Finding{
		{Pos: pos, Rule: "nanguard", Msg: "same conclusion"},
		{Pos: pos, Rule: "unitsafety", Msg: "same conclusion"},
		{Pos: pos, Rule: "unitsafety", Msg: "different conclusion"},
		{Pos: token.Position{Filename: "a.go", Line: 4, Column: 7}, Rule: "nanguard", Msg: "same conclusion"},
	}
	sortFindings(fs)
	out := dedupeFindings(fs)
	if len(out) != 3 {
		t.Fatalf("dedupe kept %d findings, want 3: %v", len(out), out)
	}
	if out[0].Rule != "nanguard" || out[0].Msg != "same conclusion" {
		t.Errorf("dedupe should keep the alphabetically first rule, got %s", out[0].Rule)
	}
}

// TestDedupeByPosRule exercises the stricter driver-output collapse:
// one rule firing twice at a position with different messages is one
// diagnostic, but distinct rules at the position each keep a line.
func TestDedupeByPosRule(t *testing.T) {
	pos := token.Position{Filename: "a.go", Line: 3, Column: 7}
	fs := []Finding{
		{Pos: pos, Rule: "nanguard", Msg: "division by fs"},
		{Pos: pos, Rule: "nanguard", Msg: "same site, second wording"},
		{Pos: pos, Rule: "unitsafety", Msg: "adjacent bare float64 params"},
		{Pos: token.Position{Filename: "a.go", Line: 4, Column: 7}, Rule: "nanguard", Msg: "division by fs"},
	}
	out := DedupeByPosRule(fs)
	if len(out) != 3 {
		t.Fatalf("dedupe kept %d findings, want 3: %v", len(out), out)
	}
	if out[0].Rule != "nanguard" || out[0].Msg != "division by fs" {
		t.Errorf("first finding should survive, got %v", out[0])
	}
	if out[1].Rule != "unitsafety" {
		t.Errorf("distinct rule at same position should survive, got %v", out[1])
	}
}

// TestJSONReportSchema pins the machine-readable contract: schema
// version, module-root-relative slash paths, and suppression marking.
func TestJSONReportSchema(t *testing.T) {
	prog, cfg := fixtureProgram(t)
	all := RunAll(prog, cfg, Analyzers(cfg))
	report := NewJSONReport(prog.Loader.ModPath, prog.Loader.ModRoot, all)

	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded JSONReport
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report does not round-trip through encoding/json: %v", err)
	}
	if decoded.Version != jsonSchemaVersion {
		t.Errorf("schema version %d, want %d", decoded.Version, jsonSchemaVersion)
	}
	if decoded.Module != "pab" {
		t.Errorf("module %q, want pab", decoded.Module)
	}
	if len(decoded.Findings) != len(all) {
		t.Fatalf("%d findings in report, want %d", len(decoded.Findings), len(all))
	}
	sawSuppressed := false
	for _, f := range decoded.Findings {
		if filepath.IsAbs(f.File) || strings.Contains(f.File, "\\") {
			t.Errorf("finding path %q is not a relative slash path", f.File)
		}
		if f.Rule == "" || f.Message == "" || f.Line <= 0 {
			t.Errorf("incomplete finding in report: %+v", f)
		}
		if f.Suppressed {
			sawSuppressed = true
			if f.SuppressReason == "" {
				t.Errorf("suppressed finding without a reason: %+v", f)
			}
		}
	}
	if !sawSuppressed {
		t.Error("fixture report contains no suppressed finding; the schema's suppression fields are untested")
	}
}

// FuzzParseIgnoreDirective asserts the directive parser's contract on
// arbitrary comment text: it never panics, non-directives are never
// malformed, and successful parses have non-empty rules and a
// single-spaced non-empty reason.
func FuzzParseIgnoreDirective(f *testing.F) {
	f.Add("//pablint:ignore floatcmp exact divider outputs")
	f.Add("//pablint:ignore floatcmp")
	f.Add("//pablint:ignore floatcmp,nanguard two rules, one reason")
	f.Add("//pablint:ignoreX not a directive")
	f.Add("//pablint:ignore")
	f.Add("// plain comment")
	f.Add("//pablint:ignore ,, empty rules")
	f.Add("//pablint:ignore\tall\ttabs everywhere")
	f.Fuzz(func(t *testing.T, text string) {
		rules, reason, isDirective, malformed := parseIgnoreDirective(text)
		if !isDirective {
			if malformed || rules != nil || reason != "" {
				t.Fatalf("non-directive %q returned (%v, %q, malformed=%v)", text, rules, reason, malformed)
			}
			return
		}
		if malformed {
			if rules != nil || reason != "" {
				t.Fatalf("malformed directive %q leaked partial results (%v, %q)", text, rules, reason)
			}
			return
		}
		if len(rules) == 0 {
			t.Fatalf("well-formed directive %q has no rules", text)
		}
		for _, r := range rules {
			if r == "" || strings.ContainsAny(r, " \t") {
				t.Fatalf("directive %q produced bad rule %q", text, r)
			}
		}
		if reason == "" || reason != strings.Join(strings.Fields(reason), " ") {
			t.Fatalf("directive %q produced non-normalised reason %q", text, reason)
		}
	})
}

// BenchmarkLintTree times the full suite over the real module tree —
// load once, analyze per iteration — so parallelism regressions and
// accidentally quadratic analyzers show up in CI benchmarks.
func BenchmarkLintTree(b *testing.B) {
	prog, cfg, err := loadProgram(filepath.Join("..", ".."))
	if err != nil {
		b.Fatal(err)
	}
	analyzers := Analyzers(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fs := RunAll(prog, cfg, analyzers); len(fs) == 0 {
			b.Fatal("suite produced no findings at all (suppressed ones count); wiring broken?")
		}
	}
}
