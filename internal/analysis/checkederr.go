package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Checkederr guards the typed-error APIs that exist so degraded inputs
// cannot pass silently: AddLinkE, RouteE, NewClosE, NewFatTreeE,
// GreedyMapE, CostE and DecomposeMasked return errors that mean "this
// matrix/topology is degraded — the value you are about to use is bogus"
// (a nil fabric from a builder, a bogus MEL point from a degraded weight
// matrix). They are the only entry points for their operations, so a
// discarded error is the only way to use a bogus result. Repo-wide it
// flags:
//
//   - assignments that blank the error result of those calls
//     (`v, _ = CostE(...)` when `_` sits in the error slot);
//   - bare call statements that drop all their results;
//   - dead blank assignments of plain variables (`_ = i`), which vet
//     misses and which usually survive a refactor by accident.
//
// Matching is by callee name plus an error-typed result in the blanked
// position, so the check follows the API through method values and
// re-exports without needing the defining package's identity.
var Checkederr = &Analyzer{
	Name: "checkederr",
	Doc:  "forbid blank-discarded errors from the typed E-APIs and dead blank assignments",
	Run:  runCheckederr,
}

// checkedAPIs are the typed-error entry points whose errors must not be
// blanked.
var checkedAPIs = map[string]bool{
	"AddLinkE":        true,
	"RouteE":          true,
	"NewClosE":        true,
	"NewFatTreeE":     true,
	"GreedyMapE":      true,
	"CostE":           true,
	"DecomposeMasked": true,
}

func runCheckederr(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkErrAssign(pass, n)
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name := calleeName(call); checkedAPIs[name] && callReturnsError(pass.TypesInfo, call) {
						pass.Reportf(call.Pos(),
							"result of %s dropped: its error means the input is degraded and the result is unusable — handle or propagate it",
							name)
					}
				}
			}
			return true
		})
	}
	return nil
}

func checkErrAssign(pass *Pass, as *ast.AssignStmt) {
	// Dead blank assignment: `_ = x` of a plain variable has no effect and
	// no documentation value (compile-time interface assertions are var
	// declarations, not assignments, and stay legal).
	if as.Tok == token.ASSIGN && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
		if lid, ok := as.Lhs[0].(*ast.Ident); ok && lid.Name == "_" {
			if rid, ok := as.Rhs[0].(*ast.Ident); ok {
				if _, isVar := pass.TypesInfo.Uses[rid].(*types.Var); isVar {
					pass.Reportf(as.Pos(), "dead blank assignment: _ = %s has no effect — delete it", rid.Name)
				}
			}
		}
	}

	// Blanked error from a checked API: v, _ := CostE(...) and friends.
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name := calleeName(call)
	if !checkedAPIs[name] {
		return
	}
	results, ok := callResults(pass.TypesInfo, call)
	if !ok {
		return
	}
	for i := 0; i < results.Len() && i < len(as.Lhs); i++ {
		if !isErrorType(results.At(i).Type()) {
			continue
		}
		if lid, ok := as.Lhs[i].(*ast.Ident); ok && lid.Name == "_" {
			pass.Reportf(as.Lhs[i].Pos(),
				"error from %s discarded with _: it means the input is degraded and the other results are unusable — handle or propagate it",
				name)
		}
	}
}

// callResults returns the result tuple of call's callee signature.
func callResults(info *types.Info, call *ast.CallExpr) (*types.Tuple, bool) {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return nil, false
	}
	return sig.Results(), true
}

func callReturnsError(info *types.Info, call *ast.CallExpr) bool {
	results, ok := callResults(info, call)
	if !ok {
		return false
	}
	for i := 0; i < results.Len(); i++ {
		if isErrorType(results.At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}
