package analysis

import (
	"go/ast"
	"go/types"
)

// Cancelflow machine-checks the typed-cancellation discipline PR 5
// threaded through the pipeline: a sweep, calibration, or solver that
// holds a live context must stay responsive to it. Inside internal/exp,
// internal/cloud, internal/core, internal/rpca and internal/simnet it
// enforces three rules:
//
//   - context.Background() and context.TODO() are banned: library code
//     never invents its own root context. Roots belong in cmd/* (and in
//     tests, which the loader excludes); a library function either
//     receives a ctx or accepts that a nil one means "no cancellation".
//
//   - a function that holds a cancellation handle — a context.Context
//     parameter, or an options/config parameter whose struct carries an
//     exported context.Context field (rpca.Options.Ctx, exp.Config.Ctx)
//     — must not drop it: passing a nil literal in a context-typed
//     argument slot discards the caller's deadline.
//
//   - an unbounded loop (`for {}` or `for cond {}`; three-clause and
//     range loops are bounded sweeps) in a handle-holding function must
//     poll cancellation every iteration: call cancel.Check, consult
//     ctx.Err/ctx.Done, or call a callee that provably polls.
//
// "Provably polls" is where facts come in. Analyzing each package,
// cancelflow computes — by intra-package fixpoint — the set of functions
// whose bodies poll cancellation directly or call a poller, and exports
// a ChecksCancelFact for each. Downstream packages, analyzed later in
// the Session's dependency order, import those facts, so a cloud loop
// that calls (*rpca.Solver).Decompose — which cancel.Checks each
// iteration — is recognized as cancellable without cloud ever naming
// rpca's internals. A call that merely *accepts* a ctx is not enough:
// the callee must be known to poll (module-external ctx-accepting
// callees are trusted — their blocking behaviour is ctx-governed by
// convention).
var Cancelflow = &Analyzer{
	Name: "cancelflow",
	Doc:  "thread contexts through the pipeline: no context.Background/TODO in library code, no dropped handles, cancel polling in unbounded loops",
	Run:  runCancelflow,
}

// ChecksCancelFact marks a function proven to poll cancellation: its
// body calls cancel.Check, consults ctx.Err/ctx.Done, or calls another
// function carrying this fact. Exported by cancelflow on the defining
// package's pass; consumed when checking unbounded loops downstream.
type ChecksCancelFact struct{}

// AFact marks ChecksCancelFact as a Fact.
func (*ChecksCancelFact) AFact() {}

var cancelflowRestricted = [][]string{
	{"internal", "exp"},
	{"internal", "cloud"},
	{"internal", "core"},
	{"internal", "rpca"},
	{"internal", "serve"},
	{"internal", "simnet"},
}

func runCancelflow(pass *Pass) error {
	restricted := false
	for _, segs := range cancelflowRestricted {
		if pathHasSegments(pass.Pkg.Path(), segs...) {
			restricted = true
			break
		}
	}
	// The cancel package itself is the polling primitive; analyzing it
	// under these rules would be circular. It still gets facts exported
	// below via the unrestricted path.
	c := &cancelflowChecker{pass: pass}
	c.computePollers()
	if restricted && !pathHasSegments(pass.Pkg.Path(), "internal", "cancel") {
		for _, f := range pass.Files {
			c.checkFile(f)
		}
	}
	return nil
}

type cancelflowChecker struct {
	pass   *Pass
	polls  map[*types.Func]bool
	bodies map[*types.Func]*ast.FuncDecl
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := n.Obj()
	return o != nil && o.Pkg() != nil && o.Pkg().Path() == "context" && o.Name() == "Context"
}

// holdsCtx reports whether sig gives the function a cancellation handle:
// a context parameter, or a parameter (struct or pointer-to-struct) with
// an exported context.Context field.
func holdsCtx(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		t := params.At(i).Type()
		if isCtxType(t) {
			return true
		}
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			for j := 0; j < st.NumFields(); j++ {
				f := st.Field(j)
				if f.Exported() && isCtxType(f.Type()) {
					return true
				}
			}
		}
	}
	return false
}

// computePollers builds the package's polls set by fixpoint and exports
// a ChecksCancelFact for every member.
func (c *cancelflowChecker) computePollers() {
	c.polls = map[*types.Func]bool{}
	c.bodies = map[*types.Func]*ast.FuncDecl{}
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			c.bodies[obj] = fd
			if c.pollsDirectly(fd.Body) {
				c.polls[obj] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, fd := range c.bodies {
			if c.polls[obj] {
				continue
			}
			if c.callsPoller(fd.Body) {
				c.polls[obj] = true
				changed = true
			}
		}
	}
	for obj := range c.polls {
		c.pass.ExportObjectFact(obj, &ChecksCancelFact{})
	}
}

// pollsDirectly reports whether body contains a direct cancellation
// poll: cancel.Check(...), ctx.Err(), or ctx.Done().
func (c *cancelflowChecker) pollsDirectly(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkg, fn, ok := pkgFuncCall(c.pass.TypesInfo, call); ok {
			if fn == "Check" && pathHasSegments(pkg, "internal", "cancel") {
				found = true
				return false
			}
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && isCtxType(c.pass.TypesInfo.TypeOf(sel.X)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// callsPoller reports whether body calls a function already known to
// poll: a member of this package's polls set, a function carrying an
// imported ChecksCancelFact, or a module-external function that accepts
// a context (trusted by convention).
func (c *cancelflowChecker) callsPoller(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c.calleePolls(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// calleePolls reports whether call's static callee is known to poll
// cancellation.
func (c *cancelflowChecker) calleePolls(call *ast.CallExpr) bool {
	var obj *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj, _ = c.pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		obj, _ = c.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if obj == nil {
		return false
	}
	if c.polls[obj] {
		return true
	}
	var fact ChecksCancelFact
	if c.pass.ImportObjectFact(obj, &fact) {
		return true
	}
	// A module-external ctx-accepting callee (stdlib, x/…) is trusted:
	// blocking stdlib APIs honor their context.
	if pkg := obj.Pkg(); pkg != nil && pkg.Path() != c.pass.Pkg.Path() &&
		!pathHasSegments(pkg.Path(), "internal") && holdsCtx(objSignature(obj)) {
		return true
	}
	return false
}

func objSignature(obj *types.Func) *types.Signature {
	sig, _ := obj.Type().(*types.Signature)
	return sig
}

// checkFile applies the three in-package rules.
func (c *cancelflowChecker) checkFile(f *ast.File) {
	// Rule 1: no fabricated root contexts, anywhere in the package.
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkg, fn, ok := pkgFuncCall(c.pass.TypesInfo, call); ok && pkg == "context" && (fn == "Background" || fn == "TODO") {
			c.pass.Reportf(call.Pos(),
				"context.%s fabricates a root context in library package %s: accept a ctx from the caller (cancel.Check treats nil as non-cancellable)",
				fn, c.pass.Pkg.Path())
		}
		return true
	})
	// Rules 2 and 3 apply inside handle-holding declarations.
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		obj, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok || !holdsCtx(objSignature(obj)) {
			continue
		}
		c.checkHolder(fd)
	}
}

// checkHolder enforces rules 2 and 3 inside one handle-holding function,
// including its nested closures (which capture the same handle).
func (c *cancelflowChecker) checkHolder(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkDroppedCtx(n)
		case *ast.ForStmt:
			if c.unbounded(n) && !c.loopPolls(n.Body) {
				c.pass.Reportf(n.Pos(),
					"unbounded loop in %s never polls cancellation: the function holds a ctx — call cancel.Check (or a callee that polls) each iteration",
					fd.Name.Name)
			}
		}
		return true
	})
}

// unbounded reports whether the for statement has no static iteration
// bound: `for {}` or `for cond {}`. Three-clause loops are counted
// sweeps and range loops walk finite collections.
func (c *cancelflowChecker) unbounded(n *ast.ForStmt) bool {
	return n.Init == nil && n.Post == nil
}

// loopPolls reports whether the loop body observes cancellation.
func (c *cancelflowChecker) loopPolls(body ast.Node) bool {
	return c.pollsDirectly(body) || c.callsPoller(body)
}

// checkDroppedCtx flags a nil literal in a context-typed argument slot:
// the function holds a live ctx and is deliberately not passing it.
func (c *cancelflowChecker) checkDroppedCtx(call *ast.CallExpr) {
	sig, ok := c.pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= params.Len() {
			pi = params.Len() - 1
		}
		if pi >= params.Len() || !isCtxType(params.At(pi).Type()) {
			continue
		}
		if id, ok := arg.(*ast.Ident); ok && id.Name == "nil" {
			c.pass.Reportf(arg.Pos(),
				"nil context passed to %s while the enclosing function holds a ctx: thread the handle instead of dropping the deadline",
				calleeName(call))
		}
	}
}
