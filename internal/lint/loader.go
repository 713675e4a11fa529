package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed and type-checked package, ready for
// analysis.
type Package struct {
	// Path is the import path ("pab/internal/phy").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Files are the parsed non-test source files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
}

// Loader parses and type-checks packages of a single module without any
// dependency on go/packages: module-internal imports are resolved from
// the module tree itself, standard-library imports through the
// compiler's source importer.
type Loader struct {
	// Fset is shared by every file the loader touches.
	Fset *token.FileSet
	// ModPath / ModRoot identify the module ("pab", "/root/repo").
	ModPath string
	ModRoot string

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
	// mu serialises Load: analyzers run in parallel and two of them
	// (telemetryhygiene, lockdiscipline) lazily load packages outside
	// the requested pattern.
	mu sync.Mutex
}

// NewLoader returns a loader for the module rooted at modRoot with the
// given module path. Standard-library imports are type-checked from
// GOROOT source (cgo disabled, so e.g. net resolves to its pure-Go
// form).
func NewLoader(modPath, modRoot string) *Loader {
	fset := token.NewFileSet()
	// The source importer type-checks stdlib dependencies straight from
	// GOROOT source via go/build's default context; with cgo off, cgo
	// packages (net, os/user, …) resolve to their pure-Go fallbacks,
	// which is all the analyzers need for symbol resolution.
	build.Default.CgoEnabled = false
	return &Loader{
		Fset:    fset,
		ModPath: modPath,
		ModRoot: modRoot,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// NewModuleLoader locates go.mod at or above dir and returns a loader
// for that module.
func NewModuleLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	return NewLoader(path, root), nil
}

// findModule walks up from dir to the first go.mod and extracts the
// module path from its module directive.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module directive in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		d = parent
	}
}

// Import implements types.Importer: module-internal paths load from the
// module tree, everything else from the standard library. It is only
// invoked by the type checker from inside an active Load, so it uses
// the unlocked path (the mutex is already held).
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.isModulePath(path) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) isModulePath(path string) bool {
	return path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/")
}

// dirFor maps a module import path to its source directory.
func (l *Loader) dirFor(path string) string {
	if path == l.ModPath {
		return l.ModRoot
	}
	rel := strings.TrimPrefix(path, l.ModPath+"/")
	return filepath.Join(l.ModRoot, filepath.FromSlash(rel))
}

// Load parses and type-checks the module package with the given import
// path (and, recursively, its module-internal dependencies). Results
// are cached; test files are excluded. Safe for concurrent use.
func (l *Loader) Load(path string) (*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.load(path)
}

// load is Load without the lock, for recursive use via Import.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := types.Config{Importer: l}
	tpkg, err := cfg.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses every non-test .go file in dir, sorted by name so
// positions and findings are stable.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// ModulePackages returns the import paths of every package under the
// module root whose path matches pattern. Supported patterns: "./..."
// (everything), "dir/..." (subtree), or a plain relative directory.
// testdata trees and hidden directories are skipped.
func (l *Loader) ModulePackages(pattern string) ([]string, error) {
	prefix := ""
	recursive := true
	switch {
	case pattern == "" || pattern == "./..." || pattern == "...":
		// whole module
	case strings.HasSuffix(pattern, "/..."):
		prefix = strings.TrimSuffix(pattern, "/...")
		prefix = strings.TrimPrefix(prefix, "./")
	default:
		prefix = strings.TrimPrefix(pattern, "./")
		recursive = false
	}

	var paths []string
	err := filepath.WalkDir(l.ModRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(l.ModRoot, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if prefix != "" {
			if !recursive && rel != prefix {
				return nil
			}
			if recursive && rel != prefix && !strings.HasPrefix(rel, prefix+"/") && rel != "." {
				// Outside the requested subtree; keep walking only while
				// we might still descend into it.
				if !strings.HasPrefix(prefix, rel+"/") {
					return filepath.SkipDir
				}
				return nil
			}
		}
		has, err := hasGoFiles(p)
		if err != nil {
			return err
		}
		if !has {
			return nil
		}
		if rel == "." {
			paths = append(paths, l.ModPath)
		} else {
			paths = append(paths, l.ModPath+"/"+rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true, nil
		}
	}
	return false, nil
}
