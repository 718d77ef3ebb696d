package blu_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	pathpkg "path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportAllowlist exempts symbols that no program calls yet. Each
// reason names the ROADMAP item that wires the symbol in, or the
// safety-code rule that keeps it. An entry whose symbol is in use (or
// gone) fails TestNoDeadExports, so the list cannot outlive its reasons.
var deadExportAllowlist = map[string]string{
	"access.Window.Freshness":         "ROADMAP 10c: the session debug endpoint reports pair freshness",
	"access.Window.Samples":           "ROADMAP 7: per-pair sample counts scale the convergence check",
	"stats.WilsonInterval":            "ROADMAP 7: a candidate per-constraint scale for the convergence check",
	"faults.TornWrite":                "ROADMAP 9: file injector for the simulation harness; persist tests drive it today",
	"faults.Truncate":                 "ROADMAP 9: file injector for the simulation harness; persist tests drive it today",
	"faults.BitFlip":                  "ROADMAP 9: file injector for the simulation harness; persist tests drive it today",
	"lte.NewLBT":                      "ROADMAP 11: eNB Cat-4 LBT, wired into sim or deleted there",
	"lte.LBT.Defer":                   "ROADMAP 11: eNB Cat-4 LBT, wired into sim or deleted there",
	"lte.LBT.Reset":                   "ROADMAP 11: eNB Cat-4 LBT, wired into sim or deleted there",
	"lte.LBT.DrawBackoffSlots":        "ROADMAP 11: eNB Cat-4 LBT, wired into sim or deleted there",
	"lte.LBT.ClearAt":                 "ROADMAP 11: eNB Cat-4 LBT, wired into sim or deleted there",
	"blueprint.Measurements.Validate": "safety code: consistency validator that access, blueprint and netsim tests check estimates against",
	"blueprint.Topology.Condition":    "safety code: Fig 8 reference conditioning that joint tests check the calculator against",
	"lte.Schedule.Validate":           "safety code: distinct-UE limit validator that lte and sched tests check scheduler output against",
	"obs.Disable":                     "safety code: restores the disabled default after five packages' tests enable recording",

	"blueprint.solverState.deltaReplace": "safety code: the generic reference TestDeltaSpecializationsExact checks the specialized delta kernels against",
}

// TestNoDeadExports fails when a top-level declaration or method is
// used by no non-test file of the module (root package, cmd/,
// examples/, internal/) or of the benchmark under bench/, outside its
// own declaration. It checks exported declarations in internal/ files
// and unexported ones in every non-test file outside bench/. A method
// that satisfies an interface — the module's own or one of the standard
// library's, such as error or http.Handler — counts as used, and so do
// main and init.
func TestNoDeadExports(t *testing.T) {
	dead, err := deadExports(".", "blu")
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, d := range dead {
		flagged[d.name] = true
		if _, ok := deadExportAllowlist[d.name]; !ok {
			t.Errorf("%s: no non-test file uses %s: delete it, move it into a _test.go file, or allowlist it with a reason", d.pos, d.name)
		}
	}
	for name := range deadExportAllowlist {
		if !flagged[name] {
			t.Errorf("allowlist entry %s: the symbol is used or gone; remove the entry", name)
		}
	}
}

// TestDeadExportsRule pins the rule on a throwaway module: an unused
// export and one used only by a test are flagged, and so are unexported
// functions, methods and values used by no non-test file; uses from
// another package, from bench/, through an interface and through
// generics are not, a self-reference does not count, and bench/'s own
// unexported code is not checked.
func TestDeadExportsRule(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"internal/a/a.go": `package a

import "fmt"

type T struct{}

func (T) String() string { return "t" }
func (T) Helper() int    { return 1 }

func Unused() {}
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}
func TestOnly() int         { return 2 }
func BenchOnly() int        { return 3 }
func Used() fmt.Stringer    { return T{} }
func Generic[E any](e E) E { return e }

type Box[E any] struct{ v E }

func (b Box[E]) Get() E { return b.v }

type u struct{}

func (u) unusedMethod() {}
func (u) usedMethod()   {}

var limit = 3

func helper() int     { u{}.usedMethod(); return limit }
func unused() int     { return 4 }
func testHelper() int { return 5 }
func init()           { _ = helper() }
`,
		"internal/a/a_test.go": "package a\n\nvar _ = TestOnly() + testHelper()\n",
		"cmd/c/main.go": `package main

import "m/internal/a"

func deadInMain() {}

func main() { _ = a.Used(); _ = a.Generic(1); _ = a.Box[int]{}.Get() }
`,
		"bench/main.go": "package main\n\nimport \"m/internal/a\"\n\nfunc benchHelper() {}\n\nfunc main() { _ = a.BenchOnly() }\n",
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dead, err := deadExports(root, "m")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	want := []string{"a.Recursive", "a.T.Helper", "a.TestOnly", "a.Unused", "a.testHelper", "a.u.unusedMethod", "a.unused", "c.deadInMain"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("flagged %v, want %v", got, want)
	}
}

type deadExport struct {
	name string // pkg.Symbol or pkg.Type.Method
	pos  token.Position
}

// deadExports type-checks the non-test files of the module at root
// (import path mod) and of its bench/ directory, and returns the
// declarations the rule above flags, sorted by name. A symbol is named
// by its package directory, so cmd/bluload's run is bluload.run.
func deadExports(root, mod string) ([]deadExport, error) {
	// The source importer type-checks the standard library from GOROOT;
	// without cgo it needs no C toolchain.
	build.Default.CgoEnabled = false
	l := &moduleLoader{
		root: root,
		mod:  mod,
		fset: token.NewFileSet(),
		pkgs: map[string]*loadedPackage{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)

	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if rel, _ := filepath.Rel(root, path); rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		if _, err := build.ImportDir(dir, 0); err != nil {
			continue // no non-test Go files here
		}
		if _, err := l.load(l.importPath(rel)); err != nil {
			return nil, err
		}
	}

	uses := map[types.Object][]token.Pos{}
	for _, p := range l.pkgs {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			uses[obj] = append(uses[obj], id.Pos())
		}
	}
	ifaces := l.interfaces()

	var dead []deadExport
	under := func(path, dir string) bool { return path == mod+"/"+dir || strings.HasPrefix(path, mod+"/"+dir+"/") }
	for path, p := range l.pkgs {
		if under(path, "bench") {
			continue
		}
		checkExported := under(path, "internal")
		for _, f := range p.files {
			for _, decl := range f.Decls {
				for _, c := range declared(decl, p.info) {
					if c.obj.Exported() && !checkExported || exempt(c.obj) ||
						usedOutside(uses[c.obj], c.node) || satisfiesInterface(c.obj, ifaces) {
						continue
					}
					name := pathpkg.Base(path) + "." + c.obj.Name()
					if recv := receiverNamed(c.obj); recv != nil {
						name = pathpkg.Base(path) + "." + recv.Obj().Name() + "." + c.obj.Name()
					}
					dead = append(dead, deadExport{name, l.fset.Position(c.obj.Pos())})
				}
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	return dead, nil
}

type loadedPackage struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// moduleLoader type-checks the module's own packages from their
// directories and hands every other import to the source importer.
type moduleLoader struct {
	root, mod string
	fset      *token.FileSet
	std       types.Importer
	pkgs      map[string]*loadedPackage
}

func (l *moduleLoader) importPath(rel string) string {
	if rel == "." {
		return l.mod
	}
	return l.mod + "/" + filepath.ToSlash(rel)
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path == l.mod || strings.HasPrefix(path, l.mod+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.Import(path)
}

func (l *moduleLoader) load(path string) (*loadedPackage, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.mod), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p := &loadedPackage{info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = p
	return p, nil
}

// interfaces returns every named interface with methods declared in a
// loaded package or any package they import, plus error.
func (l *moduleLoader) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		visit(p.types)
	}
	return out
}

type candidate struct {
	obj  types.Object
	node ast.Node // the declaration, whose own references do not count
}

func declared(decl ast.Decl, info *types.Info) []candidate {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return []candidate{{info.Defs[d.Name], d}}
	case *ast.GenDecl:
		var out []candidate
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, candidate{info.Defs[s.Name], s})
			case *ast.ValueSpec:
				for _, n := range s.Names {
					out = append(out, candidate{info.Defs[n], s})
				}
			}
		}
		return out
	}
	return nil
}

// exempt reports the declarations that are used without a reference:
// blank names, init, and a main package's main.
func exempt(obj types.Object) bool {
	switch obj.Name() {
	case "_", "init":
		return true
	case "main":
		return obj.Pkg().Name() == "main"
	}
	return false
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func usedOutside(uses []token.Pos, decl ast.Node) bool {
	for _, pos := range uses {
		if pos < decl.Pos() || pos >= decl.End() {
			return true
		}
	}
	return false
}

func receiverNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// satisfiesInterface reports whether obj is a method that some
// interface in ifaces requires of its receiver type.
func satisfiesInterface(obj types.Object, ifaces []*types.Interface) bool {
	named := receiverNamed(obj)
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named) // its method set holds value and pointer methods
	for _, it := range ifaces {
		if !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == obj.Name() {
				return true
			}
		}
	}
	return false
}
