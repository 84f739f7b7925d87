package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadTree parses and type-checks every non-test package under the
// module rooted at root (the directory containing go.mod). Test files
// (*_test.go) and testdata directories are skipped. File names in
// positions are root-relative with forward slashes, so diagnostics are
// stable regardless of where the tree is checked out.
func LoadTree(root string) ([]*Package, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	l := &loader{
		root:   root,
		module: module,
		fset:   token.NewFileSet(),
		cache:  map[string]*Package{},
		active: map[string]bool{},
	}
	// The standard library is imported from $GOROOT source; module
	// packages are resolved by the loader itself.
	l.std = importer.ForCompiler(l.fset, "source", nil)

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		path := module
		if dir != "." {
			path = module + "/" + filepath.ToSlash(dir)
		}
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// modulePath reads the module declaration from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: reading go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s/go.mod", root)
}

// packageDirs returns every root-relative directory holding at least one
// non-test .go file, sorted for deterministic load order.
func packageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		seen[rel] = true
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: walking %s: %w", root, err)
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// loader type-checks module packages on demand, memoizing results so
// shared dependencies are checked once.
type loader struct {
	root   string
	module string
	fset   *token.FileSet
	std    types.Importer
	cache  map[string]*Package
	active map[string]bool
}

// Import implements types.Importer: module-internal paths are resolved
// from source under root, everything else (the standard library) is
// delegated to the source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one module package by import path.
func (l *loader) load(path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if l.active[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.active[path] = true
	defer delete(l.active, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	dir := l.root
	if rel != "" {
		dir = filepath.Join(l.root, filepath.FromSlash(rel))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		// Only what the host's build compiles: a package may hold one file
		// per architecture or build tag.
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", path, err)
		} else if !ok {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", path, err)
		}
		display := name
		if rel != "" {
			display = rel + "/" + name
		}
		f, err := parser.ParseFile(l.fset, display, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", path)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	// Type errors are collected as positioned diagnostics instead of
	// aborting the load: a broken package must surface as a lint
	// finding ("typecheck"), never as a panic or a silently skipped
	// package whose invariants then go unchecked. The checker keeps
	// going after an error, so analyzers still see the well-typed parts
	// (they tolerate missing types.Info entries).
	var typeErrs []Diagnostic
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			te, ok := err.(types.Error)
			if !ok {
				return
			}
			typeErrs = append(typeErrs, Diagnostic{
				Pos:      te.Fset.Position(te.Pos),
				Analyzer: "typecheck",
				Message:  te.Msg,
			})
		},
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil && len(typeErrs) == 0 {
		// Errors that never reached the handler (importer failures,
		// cycles) are hard loader errors.
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{
		Path:       path,
		RelPath:    rel,
		Name:       tpkg.Name(),
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		TypeErrors: typeErrs,
	}
	l.cache[path] = p
	return p, nil
}
