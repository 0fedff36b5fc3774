package lint

import (
	"go/ast"
	"go/types"
)

// Codecstrict reports a decoded view value (a type with the generated
// ERMIViews marker, or a []byte field read off one) stored into a map,
// slice element, or package-level variable: views alias the request's
// arena payload, which is recycled when the handler returns, so anything
// that outlives the request must copy first (`append([]byte(nil), v...)`
// is the house idiom). Generated files are skipped. Whether an
// //ermi:codec type generates at all is the generator's job (make
// generate-check), and a payload type without its generated methods does
// not compile against the typed call helpers.
var Codecstrict = &Analyzer{
	Name: "codecstrict",
	Doc:  "check that decoded payload views are copied before being stored in long-lived memory",
	Run:  runCodecstrict,
}

func runCodecstrict(pass *Pass) {
	for _, file := range pass.Files {
		// Generated decoders build views into the value being decoded
		// itself; that value's lifetime is its caller's to manage.
		if ast.IsGenerated(file) {
			continue
		}
		clean := cleanLocals(pass.TypesInfo, file)
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				if !longLivedStore(pass.TypesInfo, lhs) {
					continue
				}
				if cleanSource(pass.TypesInfo, as.Rhs[i], clean) {
					continue
				}
				if why, bad := viewValue(pass.TypesInfo, as.Rhs[i]); bad {
					pass.Reportf(as.Pos(), "%s stored into long-lived memory: views alias the request arena, copy first (append([]byte(nil), v...))", why)
				}
			}
			return true
		})
	}
}

// cleanLocals finds the variables in file whose every visible assignment
// has a sanctioned (copying) right-hand side — composite literals, calls,
// conversions. A value built that way holds copies, not views, so storing
// it (or its fields) is fine. One viewy assignment anywhere poisons the
// variable for the whole file: the check is flow-insensitive.
func cleanLocals(info *types.Info, file *ast.File) map[*types.Var]bool {
	clean := map[*types.Var]bool{}
	poisoned := map[*types.Var]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			v, ok := obj.(*types.Var)
			if !ok {
				continue
			}
			if _, viewy := viewValue(info, as.Rhs[i]); viewy {
				poisoned[v] = true
			} else {
				clean[v] = true
			}
		}
		return true
	})
	for v := range poisoned {
		delete(clean, v)
	}
	return clean
}

// cleanSource reports whether e is rooted at a variable cleanLocals
// established as holding copies.
func cleanSource(info *types.Info, e ast.Expr, clean map[*types.Var]bool) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := info.Uses[root]
	if obj == nil {
		obj = info.Defs[root]
	}
	v, ok := obj.(*types.Var)
	return ok && clean[v]
}

// longLivedStore reports whether an assignment target outlives the
// enclosing call: a package-level variable, or a map/slice element or
// field reached through a pointer (a receiver's cache map, a heap object
// shared with other goroutines). A store into a container the function
// itself created and will drop is not long-lived.
func longLivedStore(info *types.Info, lhs ast.Expr) bool {
	switch t := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		return outlivingContainer(info, t.X)
	case *ast.Ident:
		return isPkgLevelVar(info, t)
	case *ast.SelectorExpr:
		return outlivingContainer(info, t)
	}
	return false
}

// outlivingContainer reports whether e denotes storage reachable after
// the function returns: rooted at a package-level variable, or reached
// through a pointer dereference (receivers and heap objects).
func outlivingContainer(info *types.Info, e ast.Expr) bool {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			if isPkgLevelVar(info, t) {
				return true
			}
			obj := info.Uses[t]
			if obj == nil {
				obj = info.Defs[t]
			}
			v, ok := obj.(*types.Var)
			if !ok {
				return false
			}
			_, isPtr := v.Type().Underlying().(*types.Pointer)
			return isPtr
		case *ast.SelectorExpr:
			if base := info.TypeOf(t.X); base != nil {
				if _, ok := base.Underlying().(*types.Pointer); ok {
					return true
				}
			}
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			return true
		default:
			return false
		}
	}
}

func isPkgLevelVar(info *types.Info, id *ast.Ident) bool {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// viewValue reports whether e evaluates to payload-aliasing memory stored
// as-is: a value of an ERMIViews type, or a []byte field read off one.
// Calls, conversions, composite literals, and append(...) results are
// treated as sanctioned copies — the copy idioms all take those shapes.
func viewValue(info *types.Info, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	switch t := e.(type) {
	case *ast.Ident:
		if typ := info.TypeOf(e); typ != nil && hasMethod(typ, "ERMIViews") {
			return "decoded view value " + t.Name, true
		}
	case *ast.UnaryExpr:
		if inner, ok := viewValue(info, t.X); ok {
			return inner, true
		}
	case *ast.StarExpr:
		if inner, ok := viewValue(info, t.X); ok {
			return inner, true
		}
	case *ast.SelectorExpr:
		if typ := info.TypeOf(e); typ != nil && hasMethod(typ, "ERMIViews") {
			return "decoded view value " + t.Sel.Name, true
		}
		base := info.TypeOf(t.X)
		if base != nil && hasMethod(base, "ERMIViews") && isByteSlice(info.TypeOf(e)) {
			return "payload view field " + t.Sel.Name, true
		}
	}
	return "", false
}
