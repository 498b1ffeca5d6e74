package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A Package is one typechecked directory of the module under analysis.
// Files holds the build-constrained non-test sources, TestFiles the
// in-package _test.go files (typechecked together with Files, as the
// go tool compiles them), and XTestFiles the external "pkg_test"
// files, typechecked as their own unit importing the live package.
type Package struct {
	Path string // import path
	Name string // package name
	Dir  string

	Files      []*ast.File
	TestFiles  []*ast.File
	XTestFiles []*ast.File

	Types *types.Package
	Info  *types.Info // covers Files + TestFiles

	XTypes *types.Package
	XInfo  *types.Info // covers XTestFiles (nil without external tests)
}

// AllFiles returns sources, in-package tests and external tests.
func (p *Package) AllFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files)+len(p.TestFiles)+len(p.XTestFiles))
	out = append(out, p.Files...)
	out = append(out, p.TestFiles...)
	return append(out, p.XTestFiles...)
}

// A Module is the fully loaded analysis target: every package of one
// Go module, parsed with comments and typechecked against real import
// data, sharing one FileSet so positions are comparable everywhere.
type Module struct {
	Path string // module path from go.mod
	Dir  string // absolute module root
	Fset *token.FileSet

	Packages []*Package // sorted by import path

	byPath map[string]*Package

	// Lazily built flow-analysis substrates shared across checks.
	cgOnce  sync.Once
	cg      *callGraph
	escOnce sync.Once
	esc     *escapeData
	escErr  error
}

// CallGraph returns the module's static call graph, built on first
// use and shared by every flow-aware check.
func (m *Module) CallGraph() *callGraph {
	m.cgOnce.Do(func() { m.cg = buildCallGraph(m) })
	return m.cg
}

// Lookup returns the package with the given import path, or nil.
func (m *Module) Lookup(path string) *Package { return m.byPath[path] }

// Load parses and typechecks every package of the module rooted at
// dir (the directory containing go.mod). Imports outside the module
// are resolved from compiler export data obtained through a single
// `go list -deps -test -export` invocation, so the standard library is
// never re-typechecked from source; module-internal imports resolve to
// the in-memory packages so object identities are shared across the
// whole module (a cross-package pass can compare types.Object values
// directly).
func Load(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &Module{Path: modPath, Dir: abs, Fset: fset, byPath: map[string]*Package{}}

	dirs, err := goDirs(abs)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	ctx.CgoEnabled = false // typecheck the pure-Go file set
	raw := map[string]*rawPkg{}
	for _, d := range dirs {
		bp, err := ctx.ImportDir(d, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok && len(bp.TestGoFiles)+len(bp.XTestGoFiles) == 0 {
				continue
			}
			if bp == nil {
				return nil, fmt.Errorf("lint: %s: %v", d, err)
			}
		}
		rel, err := filepath.Rel(abs, d)
		if err != nil {
			return nil, err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		rp := &rawPkg{dir: d, path: ip, name: bp.Name}
		parse := func(names []string) ([]*ast.File, error) {
			var files []*ast.File
			for _, n := range names {
				f, err := parser.ParseFile(fset, filepath.Join(d, n), nil, parser.ParseComments|parser.SkipObjectResolution)
				if err != nil {
					return nil, fmt.Errorf("lint: parse: %w", err)
				}
				files = append(files, f)
			}
			return files, nil
		}
		if rp.files, err = parse(bp.GoFiles); err != nil {
			return nil, err
		}
		if rp.testFiles, err = parse(bp.TestGoFiles); err != nil {
			return nil, err
		}
		if rp.xtestFiles, err = parse(bp.XTestGoFiles); err != nil {
			return nil, err
		}
		if rp.name == "" { // test-only directory
			if len(rp.testFiles) > 0 {
				rp.name = rp.testFiles[0].Name.Name
			} else if len(rp.xtestFiles) > 0 {
				rp.name = strings.TrimSuffix(rp.xtestFiles[0].Name.Name, "_test")
			}
		}
		raw[ip] = rp
	}

	ext, err := newExportImporter(fset, abs)
	if err != nil {
		return nil, err
	}
	imp := &moduleImporter{module: m, ext: ext}

	// Typecheck in dependency order (module-internal imports of the
	// source + in-package test files), detecting cycles.
	state := map[string]int{} // 0 new, 1 visiting, 2 done
	var check func(path string) error
	check = func(path string) error {
		rp := raw[path]
		if rp == nil || state[path] == 2 {
			return nil
		}
		if state[path] == 1 {
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = 1
		for _, f := range append(append([]*ast.File{}, rp.files...), rp.testFiles...) {
			for _, is := range f.Imports {
				p, _ := strconv.Unquote(is.Path.Value)
				if err := check(p); err != nil {
					return err
				}
			}
		}
		pkg, err := typecheck(fset, rp.path, rp.name, append(append([]*ast.File{}, rp.files...), rp.testFiles...), imp)
		if err != nil {
			return err
		}
		lp := &Package{
			Path: rp.path, Name: rp.name, Dir: rp.dir,
			Files: rp.files, TestFiles: rp.testFiles, XTestFiles: rp.xtestFiles,
			Types: pkg.tpkg, Info: pkg.info,
		}
		m.byPath[rp.path] = lp
		m.Packages = append(m.Packages, lp)
		state[path] = 2
		return nil
	}
	paths := make([]string, 0, len(raw))
	for p := range raw {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := check(p); err != nil {
			return nil, err
		}
	}
	// External test units, after every real package exists.
	for _, p := range paths {
		lp := m.byPath[p]
		if lp == nil || len(lp.XTestFiles) == 0 {
			continue
		}
		x, err := typecheck(fset, lp.Path+"_test", lp.Name+"_test", lp.XTestFiles, imp)
		if err != nil {
			return nil, err
		}
		lp.XTypes, lp.XInfo = x.tpkg, x.info
	}
	sort.Slice(m.Packages, func(i, j int) bool { return m.Packages[i].Path < m.Packages[j].Path })
	return m, nil
}

type rawPkg struct {
	dir, path, name              string
	files, testFiles, xtestFiles []*ast.File
}

type checked struct {
	tpkg *types.Package
	info *types.Info
}

func typecheck(fset *token.FileSet, path, name string, files []*ast.File, imp types.Importer) (*checked, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", build.Default.GOARCH)}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	_ = name
	return &checked{tpkg: tpkg, info: info}, nil
}

// moduleImporter serves module-internal packages from the in-memory
// set and everything else from compiler export data.
type moduleImporter struct {
	module *Module
	ext    types.ImporterFrom
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if p := mi.module.byPath[path]; p != nil && p.Types != nil {
		return p.Types, nil
	}
	return mi.ext.ImportFrom(path, mi.module.Dir, 0)
}

// newExportImporter builds a gc-export-data importer over the build
// cache: one `go list` maps every dependency (test deps included) of
// the module to its export file.
func newExportImporter(fset *token.FileSet, dir string) (types.ImporterFrom, error) {
	// -e tolerates broken packages: go list then returns export data
	// for everything that does compile and leaves Export empty for the
	// rest, so the loader's own typechecker gets to report the broken
	// package with a positioned diagnostic instead of surfacing raw
	// `go list` stderr.
	cmd := exec.Command("go", "list", "-e", "-deps", "-test", "-export", "-json=ImportPath,Export", "./...")
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list -export: %v\n%s", err, errb.String())
	}
	exports := map[string]string{}
	dec := json.NewDecoder(&out)
	for {
		var e struct{ ImportPath, Export string }
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: parsing go list output: %v", err)
		}
		// Skip the synthetic test variants ("p [p.test]", "p.test"):
		// importing the plain package is right for analysis.
		if e.Export == "" || strings.Contains(e.ImportPath, " ") || strings.HasSuffix(e.ImportPath, ".test") {
			continue
		}
		if _, ok := exports[e.ImportPath]; !ok {
			exports[e.ImportPath] = e.Export
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q (not a dependency of the module?)", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)
	return imp.(types.ImporterFrom), nil
}

// modulePath reads the module path out of dir/go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %s is not a module root: %v", dir, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", dir)
}

// goDirs returns every directory under root that contains .go files,
// skipping testdata, hidden and underscore-prefixed trees, and nested
// modules.
func goDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir // nested module
				}
			}
			has, err := hasGoFiles(path)
			if err != nil {
				return err
			}
			if has {
				dirs = append(dirs, path)
			}
		}
		return nil
	})
	return dirs, err
}

// GoLines counts the lines of the module's non-test Go files under
// root, over the directories Load walks (testdata, hidden and nested
// module directories excluded) and across every build constraint: the
// size yardstick chunklint -stats reports.
func GoLines(root string) (int, error) {
	dirs, err := goDirs(root)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, d := range dirs {
		ents, err := os.ReadDir(d)
		if err != nil {
			return 0, err
		}
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			b, err := os.ReadFile(filepath.Join(d, name))
			if err != nil {
				return 0, err
			}
			n += bytes.Count(b, []byte{'\n'})
		}
	}
	return n, nil
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true, nil
		}
	}
	return false, nil
}
