package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism enforces the invariant PRs 2–3 bought with hashed per-point
// seeds and index-addressed slots: every run of the measurement+analysis
// pipeline with the same seed must produce byte-identical tables. Inside
// internal/exp, internal/simnet, internal/cloud and internal/rpca it
// forbids the three ways scheduling or process state can leak into output:
//
//   - wall clock: time.Now / time.Since (timing belongs in perfbench, or
//     behind an injected clock like exp.Config.Clock);
//   - process-global randomness: package-level math/rand and math/rand/v2
//     functions, which draw from a shared stream in goroutine-arrival
//     order (constructors like rand.New/NewSource stay legal — explicit
//     seeded generators are the repo's idiom);
//   - order-dependent map iteration: a `for … range m` over a map whose
//     body appends to, float/string-accumulates into, or emits output to
//     anything not addressed by the range key itself. Go randomizes map
//     iteration order, so such loops change output run to run; the fix is
//     to sort the keys and range over the sorted slice (at which point the
//     loop ranges a slice and this check no longer applies). Two
//     deterministic idioms stay legal: writes through the range clause's
//     own key/value variables (each iteration touches its own element),
//     and collect-then-sort — appending into a slice that is later passed
//     to a sort/slices call in the same function.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clock, global rand, and order-dependent map iteration in the deterministic pipeline packages",
	Run:  runDeterminism,
}

// determinismRestricted lists the package-path segment pairs the analyzer
// applies to.
var determinismRestricted = [][]string{
	{"internal", "exp"},
	{"internal", "simnet"},
	{"internal", "topo"},
	{"internal", "cloud"},
	{"internal", "rpca"},
	{"internal", "workflow"},
	{"internal", "faults"},
	{"internal", "checkpoint"},
	{"internal", "chaos"},
	{"internal", "plan"},
	{"internal", "core"},
}

// randConstructors are the math/rand(/v2) package functions that build
// explicitly seeded generators and are therefore allowed.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	restricted := false
	for _, segs := range determinismRestricted {
		if pathHasSegments(pass.Pkg.Path(), segs...) {
			restricted = true
			break
		}
	}
	if !restricted {
		return nil
	}
	c := &detChecker{pass: pass}
	for _, f := range pass.Files {
		c.walk(f)
	}
	return nil
}

// mapFrame is one active `for … range <map>` loop during the walk. loop
// is the whole RangeStmt, so the range clause's key/value variables count
// as declared inside it.
type mapFrame struct {
	key  types.Object // range key object, nil when the key is blank/absent
	loop *ast.RangeStmt
}

type detChecker struct {
	pass   *Pass
	frames []mapFrame
	fn     ast.Node // innermost enclosing FuncDecl/FuncLit, for the sort-later exemption
}

func (c *detChecker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			prev := c.fn
			c.fn = n
			if n.Body != nil {
				c.walk(n.Body)
			}
			c.fn = prev
			return false
		case *ast.FuncLit:
			prev := c.fn
			c.fn = n
			c.walk(n.Body)
			c.fn = prev
			return false
		case *ast.RangeStmt:
			t := c.pass.TypesInfo.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			// The ranged expression itself is evaluated once, outside the
			// loop; walk it without the new frame.
			c.walk(n.X)
			var key types.Object
			if id, ok := n.Key.(*ast.Ident); ok && id.Name != "_" {
				key = c.pass.TypesInfo.ObjectOf(id)
			}
			c.frames = append(c.frames, mapFrame{key: key, loop: n})
			c.walk(n.Body)
			c.frames = c.frames[:len(c.frames)-1]
			return false
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.AssignStmt:
			c.checkAssign(n)
		}
		return true
	})
}

func (c *detChecker) checkCall(call *ast.CallExpr) {
	if pkg, fn, ok := pkgFuncCall(c.pass.TypesInfo, call); ok {
		switch pkg {
		case "time":
			if fn == "Now" || fn == "Since" {
				c.pass.Reportf(call.Pos(),
					"wall-clock time.%s in deterministic package %s: timing belongs in perfbench or behind an injected clock",
					fn, c.pass.Pkg.Path())
			}
		case "math/rand", "math/rand/v2":
			if !randConstructors[fn] {
				c.pass.Reportf(call.Pos(),
					"global %s.%s draws from process-wide state in scheduling order: use an explicitly seeded *rand.Rand",
					pkg, fn)
			}
		case "fmt":
			switch fn {
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
				if len(c.frames) > 0 {
					c.pass.Reportf(call.Pos(),
						"fmt.%s during map iteration emits rows in map-hash order: sort the keys and range the sorted slice",
						fn)
				}
			}
		}
		return
	}
	// Method emissions into figure/table outputs, matched by name: the
	// repo's Table builder (AddRow/AddNote) appends rows in call order.
	if len(c.frames) > 0 {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if name := sel.Sel.Name; name == "AddRow" || name == "AddNote" {
				if c.pass.TypesInfo.Selections[sel] != nil { // a real method, not a pkg func
					c.pass.Reportf(call.Pos(),
						"%s during map iteration emits rows in map-hash order: sort the keys and range the sorted slice",
						name)
				}
			}
		}
	}
}

func (c *detChecker) checkAssign(as *ast.AssignStmt) {
	if len(c.frames) == 0 {
		return
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := as.Lhs[0]
		t := c.pass.TypesInfo.TypeOf(lhs)
		if !isFloat(t) && !isString(t) {
			return // integer accumulation is order-independent
		}
		if !c.exempt(lhs) {
			c.pass.Reportf(as.Pos(),
				"order-dependent accumulation into %s under map iteration: float/string accumulation depends on key order — sort the keys first or index by the range key",
				types.ExprString(lhs))
		}
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
				continue
			} else if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
				continue
			}
			lhs := as.Lhs[i]
			if !c.exempt(lhs) && !c.sortedLater(lhs, as.End()) {
				c.pass.Reportf(as.Pos(),
					"append to %s under map iteration makes element order depend on map hashing: sort the result or the keys, or index by the range key",
					types.ExprString(lhs))
			}
		}
	}
}

// exempt reports whether writes to lhs are deterministic with respect to
// every active map-range frame: for each frame, lhs must either be indexed
// (at some level) by that frame's range key, or refer to a variable
// declared inside that frame's body.
func (c *detChecker) exempt(lhs ast.Expr) bool {
	for _, fr := range c.frames {
		if !c.exemptInFrame(lhs, fr) {
			return false
		}
	}
	return true
}

func (c *detChecker) exemptInFrame(lhs ast.Expr, fr mapFrame) bool {
	for {
		switch e := lhs.(type) {
		case *ast.Ident:
			obj := c.pass.TypesInfo.ObjectOf(e)
			return obj != nil && declaredWithin(obj, fr.loop)
		case *ast.IndexExpr:
			if fr.key != nil {
				if id, ok := e.Index.(*ast.Ident); ok && c.pass.TypesInfo.ObjectOf(id) == fr.key {
					return true
				}
			}
			lhs = e.X
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		default:
			return false
		}
	}
}

// sortedLater reports whether lhs is a plain variable that is passed —
// possibly through a conversion like sort.Sort(byID(x)) — to a sort or
// slices package call later in the enclosing function: the
// collect-then-sort idiom, whose final order is independent of map
// iteration order.
func (c *detChecker) sortedLater(lhs ast.Expr, after token.Pos) bool {
	id, ok := lhs.(*ast.Ident)
	if !ok || c.fn == nil {
		return false
	}
	obj := c.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(c.fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after {
			return true
		}
		pkg, _, ok := pkgFuncCall(c.pass.TypesInfo, call)
		if !ok || (pkg != "sort" && pkg != "slices") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if aid, ok := an.(*ast.Ident); ok && c.pass.TypesInfo.ObjectOf(aid) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
