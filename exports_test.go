package swapp

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowlist names the exported internal/ symbols that no non-test
// file uses but that stay in production code anyway, each with its reason.
// Go has no cross-package test-only export: a helper that tests in other
// packages call has to live in a non-test file. Keys are spelled as
// TestNoTestOnlyExports reports them.
var testOnlyAllowlist = map[string]string{
	"rng.(*Source).Perm":               "the core, ga and mpi tests draw seeded permutations through it",
	"core.DebugMemberDistances":        "kept for the surrogate-coverage diagnostic of ROADMAP item 8 (c)",
	"lru.(*Cache).Len":                 "the core layer and server result-cache tests read a cache's exact occupancy through it; the _size gauges hold only the size at the last fill's end",
	"workload.(*Signature).ScaledWork": "the hpm tests scale a signature's work through it",
	"netmodel.(*Model).Allgather":      "mpi's test-only Allgather prices itself through it, and the pinned digests of TestRandomProgramsOrderPinned and TestQueuedPostsOrderPinned run that collective",
	"netmodel.(*Model).Alltoall":       "mpi's test-only Alltoall prices itself through it, and the pinned digests of TestRandomProgramsOrderPinned and TestQueuedPostsOrderPinned run that collective",
	"netmodel.(*Model).Barrier":        "mpi's test-only Barrier prices itself through it, and the pinned digests of TestRandomProgramsOrderPinned and TestQueuedPostsOrderPinned run that collective",
}

// TestNoTestOnlyExports fails on every exported internal/ symbol — a
// package-level func, type, var or const, or a method — that no non-test
// file in the module uses: such code is dead in the program and alive only
// in its tests. See loadExportGraph for what counts as a use.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports; skipped with -short")
	}
	g, err := loadExportGraph(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range g.unused(testOnlyAllowlist) {
		t.Errorf("%s: %s has no non-test use: delete it, move it into a _test.go file, or allowlist it with a reason", s.pos, s.name)
	}
	dead := map[string]bool{}
	for _, s := range g.unused(nil) {
		dead[s.name] = true
	}
	for name, reason := range testOnlyAllowlist {
		switch {
		case !dead[name]:
			t.Errorf("allowlist entry %s is not a test-only export (gone, or used by non-test code now): remove the entry", name)
		case strings.TrimSpace(reason) == "":
			t.Errorf("allowlist entry %s has no reason", name)
		}
	}
}

// exportSymbol is one exported internal/ symbol: its report name, its
// declaration and its object.
type exportSymbol struct {
	name string
	pos  token.Position
	obj  types.Object
}

// exportGraph is the module's non-test uses of its exported internal/
// symbols. Every use is attributed to the package-level declaration that
// holds it; a use from a declaration that is not itself such a symbol — an
// unexported func, a main package, the root package — is a root.
type exportGraph struct {
	syms  []exportSymbol                  // checked symbols, sorted by name
	edges map[types.Object][]types.Object // declaration → symbols it uses
	roots []types.Object                  // symbols used from outside every checked declaration
}

// unused returns the checked symbols that no root reaches through edges,
// counting the symbols keep names as roots (an allowlisted symbol keeps
// what it uses) and leaving them out of the result.
func (g *exportGraph) unused(keep map[string]string) []exportSymbol {
	live := map[types.Object]bool{}
	stack := append([]types.Object(nil), g.roots...)
	for _, s := range g.syms {
		if _, ok := keep[s.name]; ok {
			stack = append(stack, s.obj)
		}
	}
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !live[obj] {
			live[obj] = true
			stack = append(stack, g.edges[obj]...)
		}
	}
	var out []exportSymbol
	for _, s := range g.syms {
		if !live[s.obj] {
			out = append(out, s)
		}
	}
	return out
}

// loadExportGraph parses every non-test .go file of the module rooted at
// root that the build constraints select, skipping testdata and dot- and
// underscore-directories, and type-checks each package — the standard
// library from source — so that a use is an object, not a name: two symbols
// that share a name cannot vouch for each other. A generic method's uses
// are its origin's. A use counts only when it is reachable from a root, so a
// test-only func does not keep the types in its signature alive. A concrete
// method is exempt, and a root, when its type satisfies an interface that
// declares its name and that the module calls a method of or imports from
// outside (String, Error, ServeHTTP, Len/Less/Swap, ...): an interface call
// names no concrete method.
func loadExportGraph(root string) (*exportGraph, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → non-test files
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ip := path.Join(modPath, filepath.ToSlash(rel))
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	imp := &moduleImporter{
		fset: fset, files: files, info: info,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*types.Package{},
	}
	paths := make([]string, 0, len(files))
	for ip := range files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := imp.Import(ip); err != nil {
			return nil, err
		}
	}

	internal := modPath + "/internal/"
	checked := func(obj types.Object) bool {
		if obj == nil || !obj.Exported() || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path()+"/", internal) {
			return false
		}
		return isMethod(obj) || obj.Parent() == obj.Pkg().Scope()
	}

	g := &exportGraph{edges: map[types.Object][]types.Object{}}
	ifaces := map[*types.Interface]bool{} // interfaces the module calls through
	for _, ip := range paths {
		for _, f := range files[ip] {
			for _, decl := range f.Decls {
				owners := declOwners(decl, info)
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := info.Uses[id]
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin()
						if isMethod(fn) {
							if it, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
								ifaces[it] = true
							}
						}
					}
					if !checked(obj) {
						return true
					}
					root := len(owners) == 0
					for _, o := range owners {
						if o == obj {
							continue // a declaration does not use itself
						}
						root = root || !checked(o)
						g.edges[o] = append(g.edges[o], obj)
					}
					if root {
						g.roots = append(g.roots, obj)
					}
					return true
				})
			}
		}
	}
	// The interfaces of the packages outside the module that it imports are
	// called from code this check does not read: fmt calls String, net/http
	// ServeHTTP, sort Len/Less/Swap.
	ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	for _, p := range imp.pkgs {
		for _, dep := range p.Imports() {
			if strings.HasPrefix(dep.Path()+"/", modPath+"/") {
				continue
			}
			scope := dep.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						ifaces[it] = true
					}
				}
			}
		}
	}

	for id, obj := range info.Defs {
		if !checked(obj) {
			continue
		}
		if isMethod(obj) && dispatched(obj, ifaces) {
			g.roots = append(g.roots, obj)
			continue
		}
		g.syms = append(g.syms, exportSymbol{name: symbolName(obj, modPath), pos: fset.Position(id.Pos()), obj: obj})
	}
	sort.Slice(g.syms, func(i, j int) bool { return g.syms[i].name < g.syms[j].name })
	return g, nil
}

// dispatched reports whether an interface call may reach the concrete
// method m: its type has every method, by name, of one of ifaces that
// declares m's name.
func dispatched(m types.Object, ifaces map[*types.Interface]bool) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if types.IsInterface(recv) {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(recv))
	for it := range ifaces {
		has, all := false, true
		for i := 0; i < it.NumMethods() && all; i++ {
			im := it.Method(i)
			has = has || im.Name() == m.Name()
			all = ms.Lookup(im.Pkg(), im.Name()) != nil
		}
		if has && all {
			return true
		}
	}
	return false
}

// isMethod reports whether obj is a method, concrete or of an interface.
func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// declOwners returns the package-level objects a top-level declaration
// declares: a func or method, or each name of a var, const or type spec.
func declOwners(decl ast.Decl, info *types.Info) []types.Object {
	var out []types.Object
	switch d := decl.(type) {
	case *ast.FuncDecl:
		out = append(out, info.Defs[d.Name])
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				for _, n := range s.Names {
					out = append(out, info.Defs[n])
				}
			case *ast.TypeSpec:
				out = append(out, info.Defs[s.Name])
			}
		}
	}
	return out
}

// symbolName spells obj as pkg.Name, pkg.T.M or pkg.(*T).M, with pkg its
// import path below the module's internal/.
func symbolName(obj types.Object, modPath string) string {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), modPath+"/internal/")
	if !isMethod(obj) {
		return pkg + "." + obj.Name()
	}
	recv := obj.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		return fmt.Sprintf("%s.(*%s).%s", pkg, typeName(p.Elem()), obj.Name())
	}
	return fmt.Sprintf("%s.%s.%s", pkg, typeName(recv), obj.Name())
}

// typeName is a receiver type's name without its type arguments.
func typeName(t types.Type) string {
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return types.TypeString(t, nil)
}

// moduleImporter type-checks the module's packages from the parsed files,
// once each and into one Info, so that an object is the same object at its
// declaration and at every use; the standard library comes from source
// through go/importer.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	std   types.ImporterFrom
	pkgs  map[string]*types.Package
}

func (m *moduleImporter) Import(ip string) (*types.Package, error) {
	if p, ok := m.pkgs[ip]; ok {
		return p, nil
	}
	files, ok := m.files[ip]
	if !ok {
		return m.std.ImportFrom(ip, ".", 0)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(ip, m.fset, files, m.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", ip, err)
	}
	m.pkgs[ip] = p
	return p, nil
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
