package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// pkgInfo bundles a type-checked package with the syntax the analyzers walk.
type pkgInfo struct {
	importPath string
	dir        string
	files      []*ast.File // non-test files, analyzed
	testFiles  []*ast.File // _test.go files, read only by wirepin
	pkg        *types.Package
	info       *types.Info
}

// loader parses and type-checks module packages from source. The module
// itself ("arbd/...") is resolved recursively against the repo tree; the
// standard library is delegated to the toolchain's source importer so the
// suite needs nothing beyond a GOROOT.
type loader struct {
	fset    *token.FileSet
	root    string
	module  string
	pkgs    map[string]*pkgInfo
	loading map[string]bool
	std     types.Importer
}

func newLoader(root string) (*loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(abs)
	if err != nil {
		return nil, fmt.Errorf("lint: %s is not a module root: %w", root, err)
	}
	if module == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		root:    abs,
		module:  module,
		pkgs:    make(map[string]*pkgInfo),
		loading: make(map[string]bool),
		std:     importer.ForCompiler(fset, "source", nil),
	}, nil
}

// modulePath returns the module directive of dir/go.mod ("" if it has none).
func modulePath(dir string) (string, error) {
	mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", nil
}

// Import implements types.Importer: module-internal paths load from the
// repo tree, everything else falls through to the stdlib source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pi, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pi.pkg, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one module package, memoized.
func (l *loader) load(importPath string) (*pkgInfo, error) {
	if pi, ok := l.pkgs[importPath]; ok {
		return pi, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.module), "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: cannot read package %s: %w", importPath, err)
	}
	var files, testFiles []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", filepath.Join(dir, name), err)
		}
		if strings.HasSuffix(name, "_test.go") {
			// External test packages (package foo_test) are kept too:
			// wirepin only pattern-matches their ASTs, never type-checks.
			testFiles = append(testFiles, f)
		} else {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", importPath)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	// Type errors are tolerated (the repo is expected to compile; fixtures
	// may reference only what they ship) — analyzers degrade gracefully on
	// missing type info rather than blocking the whole run.
	conf := types.Config{Importer: l, Error: func(error) {}}
	pkg, _ := conf.Check(importPath, l.fset, files, info)
	pi := &pkgInfo{
		importPath: importPath,
		dir:        dir,
		files:      files,
		testFiles:  testFiles,
		pkg:        pkg,
		info:       info,
	}
	l.pkgs[importPath] = pi
	return pi, nil
}

// loadAll discovers and loads every package under the module root matching
// the patterns. Patterns follow go tool shorthand: "./..." (everything),
// "./internal/..." (subtree), or a plain package dir like "./cmd/arbd-lint".
// With nested set, packages of nested modules whose module path is their
// import path under this module (benchmark/ is "arbd/benchmark") count too.
func (l *loader) loadAll(patterns []string, nested bool) ([]*pkgInfo, error) {
	dirs, err := l.packageDirs(nested)
	if err != nil {
		return nil, err
	}
	var out []*pkgInfo
	for _, dir := range dirs {
		rel, _ := filepath.Rel(l.root, dir)
		if !matchesAny(rel, patterns) {
			continue
		}
		importPath := l.module
		if rel != "." {
			importPath = l.module + "/" + filepath.ToSlash(rel)
		}
		pi, err := l.load(importPath)
		if err != nil {
			return nil, err
		}
		out = append(out, pi)
	}
	return out, nil
}

// packageDirs walks the module tree for directories containing Go files,
// skipping testdata, hidden dirs, and nested modules (unless nested is set
// and the nested module's path is its import path under this module).
func (l *loader) packageDirs(nested bool) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				rel, _ := filepath.Rel(l.root, path)
				if mp, _ := modulePath(path); !nested || mp != l.module+"/"+filepath.ToSlash(rel) {
					return filepath.SkipDir
				}
			}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") && !strings.HasPrefix(n, ".") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// matchesAny reports whether the root-relative package dir matches any of
// the ./...-style patterns. Nil patterns means match everything.
func matchesAny(rel string, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	rel = filepath.ToSlash(rel)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		if pat == "..." || pat == "" {
			return true
		}
		if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
			if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
				return true
			}
			continue
		}
		if rel == pat || (pat == "." && rel == ".") {
			return true
		}
	}
	return false
}
