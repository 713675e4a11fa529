package lint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reachKeep lists the functions under internal/ that no binary links but
// that stay, each with its reason. Names are relative to pab/internal/,
// in the linker's spelling.
var reachKeep = map[string]string{
	"dsp.(*IIR).Filter":            "reference side of the IIRStream and IIR kernel equivalence tests",
	"dsp.(*IIR).FiltFilt":          "reference side of TestIIRMatchesReference and the zero-phase filter test",
	"dsp.Downconvert":              "reference side of TestDownmixerMatchesDownconvert",
	"core.(*Receiver).DecodeVolts": "reference side of the stream decoder's golden test",
	"dsp.FFT":                      "reference side of core's field test and the FFT kernel tests",
	"dsp.IFFT":                     "reference side of core's field test and the FFT round-trip tests",
	"dsp.NextPow2":                 "sizes the reference transforms of core's field test",
	"dsp.Sine":                     "test signal source in the channel, hydrophone and dsp tests",
	"dsp.ArgMax":                   "pinned by TestArgMaxAndArgMaxAbs and TestArgMaxEdgeCases",
	"dsp.ResidualISI":              "the LMS equalizer stays whole for its first caller, an equalized retry",
	"dsp.(*LMSEqualizer).Taps":     "the LMS equalizer stays whole for its first caller, an equalized retry",
	"wal.(*Log).Sync":              "durability API: an explicit flush for callers that need one",
	"sim.(*Store).Sync":            "durability API: an explicit flush for callers that need one",
}

// testSupportDir is the directory under internal/ whose functions are
// outside the inventory: test support that only test binaries link.
const testSupportDir = "testutil"

// TestEveryFunctionIsReachable fails on every function under internal/
// that the linker keeps in none of the roots and that reachKeep does not
// list. The roots are every main package under cmd/ and examples/, the
// bench/ module, the root package's test binary (its figure and ablation
// benchmarks) and package pab's exported API, which a generated main
// package takes the value of through a build overlay. The linker's
// dependency dump is the ground truth, so the test resolves no calls
// itself; inlining is off so that every call a root makes shows up as an
// edge.
func TestEveryFunctionIsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("links every binary; skipped under -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	overlay, err := apiRootOverlay(root, out)
	if err != nil {
		t.Fatal(err)
	}
	flags := []string{"-gcflags=all=-l", "-ldflags=-dumpdep"}
	reached := map[string]bool{}
	for _, args := range [][]string{
		append(append([]string{"build", "-overlay", overlay}, flags...), "-o", out+string(filepath.Separator), "./cmd/...", "./examples/...", apiRootPkg),
		append(append([]string{"-C", "bench", "build"}, flags...), "-o", filepath.Join(out, "bench.bin"), "."),
		append(append([]string{"test", "-c"}, flags...), "-o", filepath.Join(out, "pab.test"), "."),
	} {
		if err := linkedSymbols(root, args, reached); err != nil {
			t.Fatal(err)
		}
	}

	declared, err := internalFuncs(root)
	if err != nil {
		t.Fatal(err)
	}
	var problems []string
	for name, pos := range declared {
		short := strings.TrimPrefix(name, "pab/internal/")
		_, keep := reachKeep[short]
		switch {
		case reached[name] && keep:
			problems = append(problems, fmt.Sprintf("%s: %s is reached now; drop it from reachKeep", pos, short))
		case !reached[name] && !keep:
			problems = append(problems, fmt.Sprintf("%s: %s is in no binary; delete it or give it a caller", pos, short))
		}
	}
	for short := range reachKeep {
		if _, ok := declared["pab/internal/"+short]; !ok {
			problems = append(problems, fmt.Sprintf("reachKeep lists %s, which no longer exists", short))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// apiRootPkg is where the build overlay puts the main package that
// roots package pab's exported API. No such directory exists on disk.
const apiRootPkg = "./internal/lint/pabapiroot"

// apiRootOverlay writes, under dir, a main package that takes the value
// of every exported function and method declared in package pab, and a
// build overlay that places it at apiRootPkg. It returns the overlay's
// path.
func apiRootOverlay(root, dir string) (string, error) {
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		return "", err
	}
	var src strings.Builder
	src.WriteString("package main\n\nimport \"pab\"\n\nvar roots = []any{\n")
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return "", err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			expr := "pab." + fn.Name.Name
			if fn.Recv != nil {
				typ, pointer := receiverType(fn.Recv.List[0].Type)
				if !ast.IsExported(typ) {
					continue
				}
				expr = "pab." + typ + "." + fn.Name.Name
				if pointer {
					expr = "(*pab." + typ + ")." + fn.Name.Name
				}
			}
			fmt.Fprintf(&src, "\t%s,\n", expr)
		}
	}
	src.WriteString("}\n\nfunc main() { println(len(roots)) }\n")
	mainFile := filepath.Join(dir, "pabapiroot.go")
	if err := os.WriteFile(mainFile, []byte(src.String()), 0o644); err != nil {
		return "", err
	}
	overlay, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(root, filepath.FromSlash(apiRootPkg), "main.go"): mainFile},
	})
	if err != nil {
		return "", err
	}
	overlayFile := filepath.Join(dir, "overlay.json")
	return overlayFile, os.WriteFile(overlayFile, overlay, 0o644)
}

// closureSuffix matches the compiler's names for function literals and
// the wrappers of go/defer statements and method values.
var closureSuffix = regexp.MustCompile(`(\.(func|gowrap|deferwrap)\d+(\.\d+)*|-fm)$`)

// linkedSymbols runs one go command from dir and adds every pab symbol
// its -dumpdep output names to reached, with generic instantiations and
// closures folded into the function that declares them.
func linkedSymbols(dir string, args []string, reached map[string]bool) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	var other []string
	sc := bufio.NewScanner(stderr)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			if len(other) < 20 {
				other = append(other, sc.Text())
			}
			continue
		}
		for _, sym := range []string{from, to} {
			if strings.HasPrefix(sym, "pab/") {
				reached[closureSuffix.ReplaceAllString(stripTypeArgs(sym), "")] = true
			}
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, strings.Join(other, "\n"))
	}
	return scanErr
}

// stripTypeArgs drops every bracketed type-argument list from a linker
// symbol: pkg.(*freeList[go.shape.*uint8]).get becomes pkg.(*freeList).get.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// internalFuncs maps the linker name of every function and method
// declared in a non-test file under root/internal to its position.
func internalFuncs(root string) (map[string]string, error) {
	decls := map[string]string{}
	fset := token.NewFileSet()
	base := filepath.Join(root, "internal")
	err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(base, path)
		if d.IsDir() {
			if d.Name() == "testdata" || rel == testSupportDir {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "pab/internal/" + filepath.ToSlash(filepath.Dir(rel))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				typ, pointer := receiverType(fn.Recv.List[0].Type)
				if pointer {
					typ = "(*" + typ + ")"
				}
				name = pkg + "." + typ + "." + fn.Name.Name
			}
			pos := fset.Position(fn.Pos())
			pos.Filename, _ = filepath.Rel(root, pos.Filename)
			decls[name] = pos.String()
		}
		return nil
	})
	return decls, err
}

// receiverType returns the type name of a method receiver, without
// type parameters, and whether the receiver is a pointer.
func receiverType(expr ast.Expr) (name string, pointer bool) {
	if s, ok := expr.(*ast.StarExpr); ok {
		pointer, expr = true, s.X
	}
	switch x := expr.(type) {
	case *ast.IndexExpr:
		expr = x.X
	case *ast.IndexListExpr:
		expr = x.X
	}
	return expr.(*ast.Ident).Name, pointer
}
