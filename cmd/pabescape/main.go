// Command pabescape pins the Go compiler's escape-analysis and inlining
// decisions for the decode hot path. pablint's allocloop rule forbids
// allocation *shapes* in hot loops; this tool guards the complementary
// invariant — allocations the code does make stay where the compiler
// proved them, and hot functions stay inlinable. The proof is fragile:
// an innocent refactor (taking an address, widening an interface,
// growing a function past the inlining budget) silently moves values to
// the heap, and nothing but the benchmark notices. pabescape makes the
// regression a CI failure instead.
//
// It runs `go build -gcflags=-m=1` over Config.HotPkgs (and any other
// package on the allowlist) in a fresh build
// cache (a warm cache suppresses compiler diagnostics entirely), parses
// the escape/inlining decisions, attributes them to their enclosing
// function, and diffs an allowlist of hot functions against the golden
// baseline lint/escape_baseline.json:
//
//	pabescape            # print the current decisions for the allowlist
//	pabescape -check     # exit 1 if any allowlisted function regressed
//	pabescape -update    # rewrite the baseline from the current build
//
// A regression is a new escape message (or a higher count of an existing
// one) or a lost inlinability. Improvements pass with a note suggesting
// -update so the tighter state gets pinned.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"pab/internal/lint"
)

// hotFuncs is the allowlist: the functions whose escape/inlining state
// the baseline pins, keyed by import path. Everything on it sits on the
// per-decode path (or is called per candidate inside it): the Into
// variants a Receiver runs in its workspace, the workspace helpers, and
// the allocating public forms that wrap them; the streaming ingest
// path a live session runs per chunk, from the PCM conversion through
// the sync scan to the window decode, and the FFT kernel behind its
// carrier search; and the sample-level exchange synthesis every link
// job runs, from the projector's query waveform and its quadrature
// through the multipath renders and the node's envelope filter to
// RunQuery itself.
var hotFuncs = map[string][]string{
	"pab/internal/hydrophone": {
		"Hydrophone.Gain", "Hydrophone.Convert",
	},
	"pab/internal/dsp": {
		"Downconvert", "DownconvertLP", "DownconvertLPFrom", "DownconvertGatedInto", "DownconvertGatedFrom", "Envelope",
		"(*StepCorrelator).Scan",
		"(*IIR).Filter", "(*IIR).FiltFilt", "(*IIR).filterInPlace", "(*IIR).filtFiltInPlace", "Decimate",
		"fftRadix2", "bitReverse", "fftStages", "radix2Pass", "radix22Pass", "AmplitudeEnvelope",
		"(*Oscillator).NextSincos", "AnalyticSine",
	},
	"pab/internal/phy": {
		"(*FM0).Encode", "(*FM0).DecodeFrom", "(*FM0).DecodeInto", "(*FM0).EncodeTemplate",
		"DetectPacket", "DetectPacketCandidates", "(*Detector).Candidates", "(*Detector).candidates",
		"(*DetectScratch).dropUnpickable", "(*DetectScratch).dropOnce", "outranks",
		"MeasureSNR", "MeasureSNRInto", "CorrectCFOInto", "Derotator.At", "BitsToBytesInto",
		"(*SyncScanner).Scan", "(*SyncScanner).Reset",
	},
	"pab/internal/core": {
		"CoherentWave", "estimateAxis", "projectAxis", "projectAxisInto", "coherentWaveTrackedInto",
		"(*Receiver).recordGated", "(*Receiver).demodulateGated", "(*Receiver).decodeGated",
		"(*Receiver).correctCFOIfReal", "carrierConcentration", "correctedConcentration", "(*Receiver).decodeBasebandStaged",
		"(*workspace).decodeAt", "(*workspace).detectRefinedAll", "(*workspace).codec", "(*workspace).filter",
		"(*refinedLock).project", "(*Link).RunQuery", "superpose",
	},
	"pab/internal/channel": {
		"(*ImpulseResponse).Apply", "addTap",
	},
	"pab/internal/projector": {
		"(*Projector).Query",
	},
	"pab/internal/stream": {
		"(*Decoder).ingest", "(*Decoder).tryDecode", "(*Decoder).Write",
	},
	"pab/internal/stream/streamd": {
		"(*Session).WriteBytes",
	},
}

// funcEscape is one function's pinned compiler state. Escape messages
// are stored verbatim but without positions, so unrelated edits that
// shift line numbers do not churn the baseline.
type funcEscape struct {
	Inlinable bool           `json:"inlinable"`
	Escapes   map[string]int `json:"escapes,omitempty"`
}

// baseline is the golden file schema.
type baseline struct {
	Version   int                               `json:"version"`
	GoVersion string                            `json:"go"`
	Packages  map[string]map[string]*funcEscape `json:"packages"`
}

const baselineVersion = 1

func main() {
	dir := flag.String("dir", ".", "module root (or any directory inside it)")
	basePath := flag.String("baseline", filepath.Join("lint", "escape_baseline.json"), "baseline path, relative to the module root")
	check := flag.Bool("check", false, "diff against the baseline; exit 1 on regressions")
	update := flag.Bool("update", false, "rewrite the baseline from the current build")
	verbose := flag.Bool("v", false, "print every parsed compiler decision, not just the allowlist")
	flag.Parse()

	root, err := findModuleRoot(*dir)
	if err != nil {
		fatal(err)
	}
	cfg := lint.DefaultConfig()

	// The hot packages, plus any allowlisted package outside them.
	pkgs := append([]string{}, cfg.HotPkgs...)
	for pkg := range hotFuncs {
		if !contains(pkgs, pkg) {
			pkgs = append(pkgs, pkg)
		}
	}
	cur, raw, err := collect(root, pkgs)
	if err != nil {
		fatal(err)
	}
	if *verbose {
		for _, line := range raw {
			fmt.Println(line)
		}
	}

	path := filepath.Join(root, *basePath)
	switch {
	case *update:
		b := &baseline{Version: baselineVersion, GoVersion: runtime.Version(), Packages: cur}
		if err := writeBaseline(path, b); err != nil {
			fatal(err)
		}
		fmt.Printf("pabescape: baseline written to %s (%d packages)\n", path, len(cur))
	case *check:
		base, err := readBaseline(path)
		if err != nil {
			fatal(fmt.Errorf("%w (run pabescape -update to create it)", err))
		}
		if base.GoVersion != runtime.Version() {
			fmt.Fprintf(os.Stderr, "pabescape: note: baseline from %s, running %s — message text may differ\n",
				base.GoVersion, runtime.Version())
		}
		regressions, notes := diff(base.Packages, cur)
		for _, n := range notes {
			fmt.Println("note: " + n)
		}
		for _, r := range regressions {
			fmt.Println("REGRESSION: " + r)
		}
		if len(regressions) > 0 {
			fmt.Printf("pabescape: %d escape/inlining regression(s) against %s\n", len(regressions), path)
			os.Exit(1)
		}
		if len(notes) > 0 {
			fmt.Println("pabescape: improvements detected; run pabescape -update to pin them")
		}
		fmt.Println("pabescape: ok")
	default:
		printTable(cur)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pabescape:", err)
	os.Exit(2)
}

// findModuleRoot walks up from dir to the enclosing go.mod.
func findModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		d = parent
	}
}

// collect compiles pkgs with -m=1 in a fresh build cache and returns
// the allowlisted functions' state, keyed pkg → func.
func collect(root string, pkgs []string) (map[string]map[string]*funcEscape, []string, error) {
	// A scratch GOCACHE forces the named packages through the compiler:
	// with a warm cache `go build` replays the cached objects and emits
	// no diagnostics at all.
	scratch, err := os.MkdirTemp("", "pabescape-gocache-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(scratch)

	args := append([]string{"build", "-gcflags=-m=1"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOCACHE="+scratch)
	var stderr bytes.Buffer
	cmd.Stdout = os.Stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go build -gcflags=-m=1 failed: %v\n%s", err, stderr.String())
	}

	out := make(map[string]map[string]*funcEscape)
	for pkg, fns := range hotFuncs {
		if !contains(pkgs, pkg) {
			continue
		}
		m := make(map[string]*funcEscape, len(fns))
		for _, fn := range fns {
			m[fn] = &funcEscape{}
		}
		out[pkg] = m
	}

	var raw []string
	idx := newFuncIndex()
	sc := bufio.NewScanner(&stderr)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		file, ln, msg, ok := splitDiag(line)
		if !ok {
			continue
		}
		raw = append(raw, line)
		pkg := pkgForFile(file)
		fns, tracked := out[pkg]
		if !tracked {
			continue
		}
		name, ok := idx.enclosing(filepath.Join(root, file), ln)
		if !ok {
			continue
		}
		fe, tracked := fns[name]
		if !tracked {
			continue
		}
		switch {
		case strings.HasPrefix(msg, "can inline "):
			// Attribute only the function's own inlinability, not a
			// closure's ("can inline F.func1" also lands inside F).
			if strings.TrimPrefix(msg, "can inline ") == name {
				fe.Inlinable = true
			}
		case strings.Contains(msg, "escapes to heap"), strings.HasPrefix(msg, "moved to heap:"):
			if fe.Escapes == nil {
				fe.Escapes = make(map[string]int)
			}
			fe.Escapes[msg]++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return out, raw, nil
}

// splitDiag parses "path/file.go:12:34: message".
func splitDiag(line string) (file string, ln int, msg string, ok bool) {
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 || !strings.HasSuffix(parts[0], ".go") {
		return "", 0, "", false
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, "", false
	}
	return parts[0], n, strings.TrimSpace(parts[3]), true
}

// pkgForFile maps a root-relative file path to its import path under
// the pab module.
func pkgForFile(file string) string {
	return "pab/" + filepath.ToSlash(filepath.Dir(file))
}

// funcIndex lazily parses source files and answers "which function
// declaration encloses line N of file F", using the compiler's own
// naming for methods: (T).Name or (*T).Name.
type funcIndex struct {
	files map[string][]funcRange
}

type funcRange struct {
	name       string
	start, end int
}

func newFuncIndex() *funcIndex {
	return &funcIndex{files: make(map[string][]funcRange)}
}

func (x *funcIndex) enclosing(path string, line int) (string, bool) {
	ranges, ok := x.files[path]
	if !ok {
		ranges = parseFuncRanges(path)
		x.files[path] = ranges
	}
	for _, r := range ranges {
		if r.start <= line && line <= r.end {
			return r.name, true
		}
	}
	return "", false
}

func parseFuncRanges(path string) []funcRange {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil
	}
	var out []funcRange
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		out = append(out, funcRange{
			name:  compilerName(fn),
			start: fset.Position(fn.Pos()).Line,
			end:   fset.Position(fn.End()).Line,
		})
	}
	return out
}

// compilerName renders fn the way -m diagnostics name it.
func compilerName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	star := ""
	if s, ok := t.(*ast.StarExpr); ok {
		star = "*"
		t = s.X
	}
	base := ""
	switch x := t.(type) {
	case *ast.Ident:
		base = x.Name
	case *ast.IndexExpr: // generic receiver
		if id, ok := x.X.(*ast.Ident); ok {
			base = id.Name
		}
	}
	if star == "" {
		return base + "." + fn.Name.Name // value receivers print bare: T.M
	}
	return "(*" + base + ")." + fn.Name.Name
}

// diff compares baseline → current, returning regressions (fail CI) and
// improvement notes (pass, suggest -update).
func diff(base, cur map[string]map[string]*funcEscape) (regressions, notes []string) {
	for _, pkg := range sortedKeys(cur) {
		baseFns := base[pkg]
		for _, fn := range sortedKeys(cur[pkg]) {
			c := cur[pkg][fn]
			label := pkg + "." + fn
			b, ok := baseFns[fn]
			if !ok {
				regressions = append(regressions, label+": not in baseline (new allowlist entry? run pabescape -update)")
				continue
			}
			if b.Inlinable && !c.Inlinable {
				regressions = append(regressions, label+": no longer inlinable")
			} else if !b.Inlinable && c.Inlinable {
				notes = append(notes, label+": newly inlinable")
			}
			for _, msg := range sortedKeys(c.Escapes) {
				if n, bn := c.Escapes[msg], b.Escapes[msg]; n > bn {
					regressions = append(regressions, fmt.Sprintf("%s: %q ×%d (baseline ×%d)", label, msg, n, bn))
				}
			}
			for _, msg := range sortedKeys(b.Escapes) {
				if n, bn := c.Escapes[msg], b.Escapes[msg]; n < bn {
					notes = append(notes, fmt.Sprintf("%s: %q ×%d (baseline ×%d)", label, msg, n, bn))
				}
			}
		}
	}
	sort.Strings(regressions)
	sort.Strings(notes)
	return regressions, notes
}

func printTable(cur map[string]map[string]*funcEscape) {
	for _, pkg := range sortedKeys(cur) {
		fmt.Println(pkg)
		for _, fn := range sortedKeys(cur[pkg]) {
			c := cur[pkg][fn]
			inl := "not inlinable"
			if c.Inlinable {
				inl = "inlinable"
			}
			fmt.Printf("  %-32s %s, %d escape message(s)\n", fn, inl, len(c.Escapes))
			for _, msg := range sortedKeys(c.Escapes) {
				fmt.Printf("    ×%d %s\n", c.Escapes[msg], msg)
			}
		}
	}
}

func readBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if b.Version != baselineVersion {
		return nil, fmt.Errorf("%s: baseline version %d, tool supports %d", path, b.Version, baselineVersion)
	}
	return &b, nil
}

func writeBaseline(path string, b *baseline) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
