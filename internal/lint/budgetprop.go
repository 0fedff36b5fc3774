package lint

import (
	"go/ast"
	"go/types"
)

// Budgetprop enforces deadline-budget propagation: a handler (any function
// taking a *transport.Request) that issues a downstream transport call
// must thread the caller's budget into it, or the upstream deadline stops
// bounding the chain — a handler with 80ms left can happily start a 2s
// downstream call and the client times out while the server keeps
// working.
//
// Checked call shapes on transport.Client, inside request-taking
// functions only:
//
//	Call(svc, m, payload, timeout)   — timeout doubles as the wire budget; must derive
//	CallDecode(svc, m, a, r, timeout) — same
//	Start(svc, m, payload, budget, done) — same
//
// "Derives from the request" means the argument expression mentions the
// request variable (req.Budget, time.Until(req.Deadline),
// remaining(req), ...) or a local previously assigned from one that does.
// Fire-and-forget sends (OneWay*) carry no reply deadline and are exempt.
//
// The check sees through calls: the fact table (factbuild.go) records, for
// every function in this package and its imports, which parameters flow
// into a downstream transport budget slot (those arguments must derive
// from the request here) and whether the function issues a transport call
// whose budget derives from nothing the caller controls (calling it from a
// handler breaks the deadline chain outright, however many packages deep
// the actual Call is).
var Budgetprop = &Analyzer{
	Name: "budgetprop",
	Doc:  "check that request handlers thread the caller's budget into downstream transport calls",
	Run:  runBudgetprop,
}

// budgetArg maps the checked Client methods to the index of their
// budget-bearing argument.
var budgetArg = map[string]int{
	"Call":       3,
	"CallDecode": 4,
	"Start":      3,
}

func runBudgetprop(pass *Pass) {
	if pkgElem(pass.Pkg) == "transport" {
		return // the transport owns the budget plumbing it implements
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var ftyp *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftyp, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ftyp, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			req := requestParam(pass.TypesInfo, ftyp)
			if req == nil {
				return true
			}
			checkBudgets(pass, body, req)
			return true
		})
	}
}

func checkBudgets(pass *Pass, body *ast.BlockStmt, req *types.Var) {
	// derived: locals assigned (so far, in source order) from an expression
	// that mentions the request.
	derived := map[*types.Var]bool{}
	mentionsReq := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && (v == req || derived[v]) {
				found = true
			}
			return true
		})
		return found
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			// Nested request-taking literals get their own walk from
			// runBudgetprop; other literals inherit this handler's req via
			// capture, so keep descending with the same state.
			if requestParam(pass.TypesInfo, t.Type) != nil {
				return false
			}
		case *ast.AssignStmt:
			if len(t.Lhs) == len(t.Rhs) {
				for i, lhs := range t.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					if !mentionsReq(t.Rhs[i]) {
						continue
					}
					if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
						derived[v] = true
					} else if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
						derived[v] = true
					}
				}
			}
		case *ast.CallExpr:
			pkgBase, recv, name, ok := calleeName(pass.TypesInfo, t)
			if !ok {
				return true
			}
			if pkgBase != "transport" || recv != "Client" {
				checkBudgetFacts(pass, t, mentionsReq)
				return true
			}
			slot, checked := budgetArg[name]
			if !checked {
				return true
			}
			if slot >= len(t.Args) {
				return true // malformed call; the compiler owns this
			}
			if !mentionsReq(t.Args[slot]) {
				pass.Reportf(t.Pos(), "downstream %s does not propagate the request budget: derive the timeout argument from req.Budget or req.Deadline", name)
			}
		}
		return true
	})
}

// checkBudgetFacts applies the fact table to a non-transport call inside a
// handler: arguments the callee feeds into a downstream budget slot must
// derive from the request, and a callee that hardcodes a downstream budget
// is reported at the call site.
func checkBudgetFacts(pass *Pass, call *ast.CallExpr, mentionsReq func(ast.Expr) bool) {
	key := calleeFactKey(pass.TypesInfo, call)
	if key == "" {
		return
	}
	fact := pass.Facts.Fn(key)
	if fact == nil {
		return
	}
	short := shortFactKey(key)
	if fact.Unbudgeted {
		pass.Reportf(call.Pos(), "handler calls %s, which issues a downstream transport call whose budget does not derive from this request: thread req.Budget through or bound the chain explicitly", short)
	}
	for _, j := range fact.BudgetParams {
		if j >= len(call.Args) {
			continue
		}
		if !mentionsReq(call.Args[j]) {
			pass.Reportf(call.Pos(), "argument %d of %s flows into a downstream transport budget: derive it from req.Budget or req.Deadline", j+1, short)
		}
	}
}
