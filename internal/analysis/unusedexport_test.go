package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"netconstant/internal/analysis"
)

// keepExports lists exported internal API that no program calls but
// that stays on purpose, keyed "pkg.Name" or "pkg.Type.Method", with
// the reason. An entry whose symbol a program does reach fails the
// test, as a netlint allow that suppresses nothing does. An entry keeps
// alive everything its declaration names, so only the roots of a kept
// cluster are listed.
var keepExports = map[string]string{
	"mat.Dense.ApproxEqual":   "reference algebra: other packages' tests compare against it",
	"mat.Dense.Mul":           "reference algebra: other packages' tests compare against it",
	"mat.Dense.Add":           "reference algebra: rpca's full-SVT reference decomposition is built from it",
	"mat.Dense.AddInPlace":    "reference algebra: rpca's full-SVT reference decomposition is built from it",
	"mat.Dense.Scale":         "reference algebra: rpca's full-SVT reference decomposition is built from it",
	"mat.Dense.Apply":         "reference algebra: rpca's full-SVT reference decomposition is built from it",
	"mat.Dense.SoftThreshold": "reference algebra: rpca's full-SVT reference decomposition is built from it",
	"mat.Dense.Rank":          "reference algebra: other packages' tests check recovered ranks with it",
	"mat.Random":              "reference algebra: other packages' tests draw their inputs with it",
	"mpi.Tree.Validate":       "oracle: every planner's tests check their output trees with it",
	"topo.NewFatTreeE":        "fixture: simnet's differential and allocation tests route their multipath 3-tier fabric through it",
	"analysistest.Run":        "fixture: the analyzer tests' driver; a test-support package has only test callers",
	"analysistest.RunDeps":    "fixture: the analyzer tests' driver; a test-support package has only test callers",
}

// keepKinds are the reasons API may stay without a program caller: a
// keepExports reason starts with one of them.
var keepKinds = []string{"reference algebra:", "oracle:", "fixture:"}

// TestNoUnusedExports fails when an exported declaration in
// netconstant/internal/... is reachable from no program: not from a
// command, an example, the root package's facade or the perfbench
// module. Tests do not count as callers, so API that only its own
// tests call is reported. Reachability is transitive: a declaration
// used only by unreachable declarations is itself unreachable, and a
// type referenced only by its own methods is unused. A method that
// implements a method of an interface declared in the program or the
// standard library is reached through its type.
//
// This is a test, not a netlint analyzer, because netlint checks one
// package at a time in dependency order and never sees a package's
// dependents. Skipped under -short: it type-checks both modules from
// source.
func TestNoUnusedExports(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide export sweep skipped in -short mode")
	}
	l := &analysis.Loader{Dir: "../../perfbench"}
	pkgs, err := l.LoadDeps("netconstant/...", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 30 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	g := buildRefGraph(pkgs)

	live := g.reach(g.roots)
	kept := map[types.Object]bool{}
	found := map[string]bool{}
	for obj := range g.nodes {
		name := exportName(obj)
		if _, ok := keepExports[name]; !ok {
			continue
		}
		found[name] = true
		if live[obj] {
			t.Errorf("keepExports[%q] keeps nothing: a program reaches it", name)
		}
		kept[obj] = true
	}
	for name, reason := range keepExports {
		if !found[name] {
			t.Errorf("keepExports[%q] names no declaration", name)
		}
		if !hasKeepKind(reason) {
			t.Errorf("keepExports[%q]: reason %q starts with none of %q", name, reason, keepKinds)
		}
	}
	for obj := range g.reach(kept) {
		live[obj] = true
	}

	var dead []string
	for obj := range g.nodes {
		if live[obj] || !obj.Exported() || g.implements[obj] {
			continue
		}
		dead = append(dead, exportName(obj)+"\t"+g.pos(obj))
	}
	sort.Strings(dead)
	for _, d := range dead {
		name, pos, _ := strings.Cut(d, "\t")
		t.Errorf("%s: %s is exported but no program reaches it; delete it, or add it to keepExports with the reason", pos, name)
	}
	if len(dead) > 0 {
		t.Logf("%d unused exported declarations", len(dead))
	}
}

func hasKeepKind(reason string) bool {
	for _, k := range keepKinds {
		if strings.HasPrefix(reason, k) {
			return true
		}
	}
	return false
}

// refGraph is the reference graph between the package-level
// declarations of netconstant/internal/...: an edge a→b means a's
// declaration names b.
type refGraph struct {
	fset       *token.FileSet
	nodes      map[types.Object]bool
	edges      map[types.Object][]types.Object
	roots      map[types.Object]bool
	implements map[types.Object]bool // methods reached through an interface
}

const internalPrefix = "netconstant/internal/"

func buildRefGraph(pkgs []*analysis.Package) *refGraph {
	g := &refGraph{
		fset:       pkgs[0].Fset,
		nodes:      map[types.Object]bool{},
		edges:      map[types.Object][]types.Object{},
		roots:      map[types.Object]bool{},
		implements: map[types.Object]bool{},
	}
	isInternal := func(p *types.Package) bool {
		return p != nil && strings.HasPrefix(p.Path(), internalPrefix)
	}
	// Every package-level declaration of an internal package is a node.
	for _, pkg := range pkgs {
		if !isInternal(pkg.Types) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				for _, obj := range declObjects(pkg.Info, decl) {
					g.nodes[obj] = true
				}
			}
		}
	}
	// Each identifier use is an edge from the declaration around it, or
	// a root when that declaration is outside the graph: code of a
	// non-internal package, an init function, or a blank var.
	for _, pkg := range pkgs {
		internal := isInternal(pkg.Types)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var owners []types.Object
				if internal {
					owners = declObjects(pkg.Info, decl)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					used := origin(pkg.Info.Uses[id])
					if used == nil || !g.nodes[used] {
						return true
					}
					if len(owners) == 0 {
						g.roots[used] = true
					}
					for _, o := range owners {
						if o != used {
							g.edges[o] = append(g.edges[o], used)
						}
					}
					return true
				})
			}
		}
	}
	g.addInterfaceEdges(pkgs)
	return g
}

// declObjects returns the graph nodes a top-level declaration defines.
// init functions and blank names define none: what they name is a root.
func declObjects(info *types.Info, decl ast.Decl) []types.Object {
	var objs []types.Object
	add := func(id *ast.Ident) {
		if id.Name == "_" || id.Name == "init" {
			return
		}
		if obj := info.Defs[id]; obj != nil {
			objs = append(objs, obj)
		}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && d.Name.Name == "init" {
			return nil
		}
		add(d.Name)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				add(s.Name)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					add(n)
				}
			}
		}
	}
	return objs
}

// dynamicInterfaces are the interfaces the standard library asserts
// without naming them (errors.Is, errors.As and errors.Unwrap), so no
// package scope declares them.
const dynamicInterfaces = `package dynamic
type (
	isser          interface{ Is(error) bool }
	aser           interface{ As(any) bool }
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
)`

// addInterfaceEdges links every internal named type to each method of
// its method set that implements a method of some interface declared
// in the program, in the standard library, or in dynamicInterfaces:
// such a method is live whenever its type is.
func (g *refGraph) addInterfaceEdges(pkgs []*analysis.Package) {
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dynamic.go", dynamicInterfaces, 0)
	if err != nil {
		panic(err)
	}
	dyn, err := (&types.Config{}).Check("dynamic", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	visit(dyn)
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	for obj := range g.nodes {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		mset := types.NewMethodSet(ptr)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				sel := mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name())
				if sel == nil {
					continue
				}
				m := origin(sel.Obj())
				if g.nodes[m] {
					g.edges[tn] = append(g.edges[tn], m)
					g.implements[m] = true
				}
			}
		}
	}
}

// reach returns every node reachable from from, from included.
func (g *refGraph) reach(from map[types.Object]bool) map[types.Object]bool {
	live := map[types.Object]bool{}
	var stack []types.Object
	for obj := range from {
		live[obj] = true
		stack = append(stack, obj)
	}
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range g.edges[obj] {
			if !live[next] {
				live[next] = true
				stack = append(stack, next)
			}
		}
	}
	return live
}

func (g *refGraph) pos(obj types.Object) string {
	p := g.fset.Position(obj.Pos())
	if i := strings.Index(p.Filename, "internal/"); i >= 0 {
		p.Filename = p.Filename[i:]
	}
	return p.String()
}

// exportName is obj's keepExports key: "pkg.Name" or "pkg.Type.Method".
func exportName(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok {
		if named := recvNamed(fn); named != nil {
			name += named.Obj().Name() + "."
		}
	}
	return name + obj.Name()
}

func recvNamed(fn *types.Func) *types.Named {
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

// origin maps a use of an instantiated generic function or method back
// to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
