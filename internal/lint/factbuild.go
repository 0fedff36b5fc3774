package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Fact construction: the per-package summary pass every driver runs before
// the analyzers. BuildFacts walks each declared function once, classifies
// its own blocking operations, mutex acquisitions, budget flows and
// payload-ownership guards, then propagates through the call graph — local
// calls and calls into imported packages (resolved against the imported
// fact set) alike — to a fixed point. The result embeds the imported facts
// (transitive export; see facts.go), so it is both the analyzers' lookup
// table and the package's vetx output.

// factKey names a declared function or method for the fact table:
// "import/path.Recv.Name" or "import/path.Name".
func factKey(pkgPath string, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if se, ok := t.(*ast.StarExpr); ok {
			t = se.X
		}
		if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver
			t = ix.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return pkgPath + "." + id.Name + "." + fd.Name.Name
		}
	}
	return pkgPath + "." + fd.Name.Name
}

// shortFactKey strips the import-path directory from a fact key for
// diagnostics: "elasticrmi/internal/core.Stub.Invoke" → "core.Stub.Invoke".
func shortFactKey(key string) string {
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		return key[i+1:]
	}
	return key
}

// calleeFactKey resolves a call expression to the fact key of its callee —
// any package, full import path — or "" for unresolvable shapes (built-ins,
// interface methods, function values).
func calleeFactKey(info *types.Info, call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fn].(*types.Func); ok && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok && sel.Kind() == types.MethodVal {
			m := sel.Obj()
			if m.Pkg() == nil {
				return ""
			}
			rn := namedOf(sel.Recv())
			if rn == nil {
				return ""
			}
			return m.Pkg().Path() + "." + rn.Obj().Name() + "." + m.Name()
		}
		if obj, ok := info.Uses[fn.Sel].(*types.Func); ok && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return ""
}

// callRec is one call site remembered for the propagation fixpoint.
type callRec struct {
	key  string
	args []ast.Expr
	pos  token.Pos
}

// fnState is the under-construction fact of one declared function.
type fnState struct {
	fact   *FuncFact
	calls  []callRec
	params []*types.Var // in order, receiver excluded
	req    *types.Var   // the *transport.Request parameter, if any
	// derived maps locals to the parameter indexes they were assigned
	// from; -1 in the set means "derived from the request parameter".
	derived map[*types.Var]map[int]bool
}

// BuildFacts computes the fact set of pkg: its own functions and enums
// merged over imported (which may be nil). See the package comment in
// facts.go for semantics.
func BuildFacts(pkg *Package, imported *Facts) *Facts {
	out := NewFacts()
	out.Merge(imported)
	pkgPath := pkg.Types.Path()

	states := map[string]*fnState{}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			st := scanFunction(pkg, fd)
			states[factKey(pkgPath, fd)] = st
		}
	}

	// Propagate through the call graph to a fixed point. Lookups hit the
	// local states first, then the imported facts, so chains that leave the
	// package and come back (kvstore → core → transport) converge too.
	lookup := func(key string) *FuncFact {
		if st, ok := states[key]; ok {
			return st.fact
		}
		return imported.Fn(key)
	}
	for changed := true; changed; {
		changed = false
		for _, st := range states {
			for _, c := range st.calls {
				sub := lookup(c.key)
				if sub == nil {
					continue
				}
				if st.fact.Blocks == "" && sub.Blocks != "" {
					st.fact.Blocks = "a call to " + shortFactKey(c.key) + " (" + sub.Blocks + ")"
					changed = true
				}
				for _, a := range sub.Acquires {
					if !containsStr(st.fact.Acquires, a) {
						st.fact.Acquires = append(st.fact.Acquires, a)
						changed = true
					}
				}
				if sub.Unbudgeted && !st.fact.Unbudgeted {
					st.fact.Unbudgeted = true
					changed = true
				}
				for _, j := range sub.BudgetParams {
					if j >= len(c.args) {
						continue
					}
					if st.classifyBudgetArg(pkg.Info, c.args[j]) {
						changed = true
					}
				}
			}
		}
	}
	for key, st := range states {
		sort.Strings(st.fact.Acquires)
		sort.Ints(st.fact.BudgetParams)
		out.Fns[key] = st.fact
	}

	for key, e := range collectEnums(pkg) {
		out.Enums[key] = e
	}
	return out
}

// classifyBudgetArg folds one budget-position argument into the function's
// fact: derived from parameter i → i joins BudgetParams; derived from the
// request → already propagated correctly; anything else (a constant, an
// unrelated local) → Unbudgeted. Reports whether the fact changed.
func (st *fnState) classifyBudgetArg(info *types.Info, arg ast.Expr) bool {
	idxs, fromReq := st.exprSources(info, arg)
	changed := false
	if len(idxs) == 0 && !fromReq {
		if !st.fact.Unbudgeted {
			st.fact.Unbudgeted = true
			changed = true
		}
		return changed
	}
	for i := range idxs {
		if !containsInt(st.fact.BudgetParams, i) {
			st.fact.BudgetParams = append(st.fact.BudgetParams, i)
			changed = true
		}
	}
	return changed
}

// exprSources resolves which of the function's parameters (by index) and
// whether its request parameter flow into e, directly or through locals
// previously assigned from them.
func (st *fnState) exprSources(info *types.Info, e ast.Expr) (map[int]bool, bool) {
	idxs := map[int]bool{}
	fromReq := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if v == st.req {
			fromReq = true
			return true
		}
		for i, p := range st.params {
			if v == p {
				idxs[i] = true
				return true
			}
		}
		for i := range st.derived[v] {
			if i == -1 {
				fromReq = true
			} else {
				idxs[i] = true
			}
		}
		return true
	})
	return idxs, fromReq
}

// scanFunction performs the local (non-propagated) analysis of one
// declared function.
func scanFunction(pkg *Package, fd *ast.FuncDecl) *fnState {
	info := pkg.Info
	st := &fnState{fact: &FuncFact{}, derived: map[*types.Var]map[int]bool{}}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok && v != nil {
					st.params = append(st.params, v)
				}
			}
		}
	}
	st.req = requestParam(info, fd.Type)

	// Pass 1: blocking operations and mutex acquisitions. Goroutine bodies
	// are excluded — what a spawned goroutine does is not charged to its
	// spawner.
	var inspect func(n ast.Node) bool
	inspect = func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			// A select with a default never blocks on its comm ops.
			if selectHasDefault(t) {
				for _, cl := range t.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							ast.Inspect(s, inspect)
						}
					}
				}
				return false
			}
			if st.fact.Blocks == "" {
				st.fact.Blocks = "a select with no default"
			}
			return true
		case *ast.SendStmt:
			if st.fact.Blocks == "" {
				st.fact.Blocks = "a channel send"
			}
		case *ast.UnaryExpr:
			if t.Op == token.ARROW && st.fact.Blocks == "" {
				st.fact.Blocks = "a channel receive"
			}
		case *ast.CallExpr:
			if op, ok := mutexOp(info, t); ok {
				if op.op == "Lock" || op.op == "RLock" || op.op == "TryLock" {
					if !containsStr(st.fact.Acquires, string(op.key)) {
						st.fact.Acquires = append(st.fact.Acquires, string(op.key))
					}
				}
				return true
			}
			if pkgBase, recv, name, ok := calleeName(info, t); ok {
				if why, bad := blockingCall(pkgBase, recv, name); bad && st.fact.Blocks == "" {
					st.fact.Blocks = why
				}
			}
			if key := calleeFactKey(info, t); key != "" {
				st.calls = append(st.calls, callRec{key: key, args: t.Args, pos: t.Pos()})
			}
		}
		return true
	}
	ast.Inspect(fd.Body, inspect)

	// Pass 2: budget flows and request-ownership guards, goroutine bodies
	// included — a call issued from a spawned goroutine still outlives the
	// caller's deadline if its budget is unbounded, and a Retain inside a
	// synchronously-called closure still guards the slab.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			st.trackDerived(info, t)
		case *ast.CallExpr:
			pkgBase, recv, name, ok := calleeName(info, t)
			if !ok {
				return true
			}
			if pkgBase == "transport" && recv == "Client" {
				if slot, checked := budgetArg[name]; checked && pkg.Types.Name() != "transport" {
					if slot >= len(t.Args) {
						st.fact.Unbudgeted = true
					} else {
						st.classifyBudgetArg(info, t.Args[slot])
					}
				}
				return true
			}
			if st.req == nil || pkgBase != "transport" || recv != "Request" {
				return true
			}
			sel, ok := ast.Unparen(t.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok || info.Uses[id] != st.req {
				return true
			}
			if name == "Retain" {
				st.fact.RetainsReq = true
			}
		}
		return true
	})
	if st.req != nil {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "ReleaseReply" || i >= len(as.Rhs) {
					continue
				}
				id, ok := ast.Unparen(sel.X).(*ast.Ident)
				if !ok || info.Uses[id] != st.req {
					continue
				}
				if bl, ok := ast.Unparen(as.Rhs[i]).(*ast.Ident); ok && bl.Name == "true" {
					st.fact.ReleasesReply = true
				}
			}
			return true
		})
	}
	return st
}

// trackDerived records locals assigned from parameter- or request-derived
// expressions, so a budget threaded through an intermediate variable
// (`t := timeout / 2`) keeps its provenance.
func (st *fnState) trackDerived(info *types.Info, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
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
		idxs, fromReq := st.exprSources(info, as.Rhs[i])
		if len(idxs) == 0 && !fromReq {
			continue
		}
		set := st.derived[v]
		if set == nil {
			set = map[int]bool{}
			st.derived[v] = set
		}
		for j := range idxs {
			set[j] = true
		}
		if fromReq {
			set[-1] = true
		}
	}
}

// exhaustiveMarker is the enum annotation: a type whose switches must
// handle every declared member or carry an explicit default.
const exhaustiveMarker = "//ermi:exhaustive"

// collectEnums finds the //ermi:exhaustive-marked named types of pkg and
// their package-level constant members.
func collectEnums(pkg *Package) map[string]*EnumFact {
	marked := map[string]bool{} // type name → marked
	hasMarker := func(groups ...*ast.CommentGroup) bool {
		for _, g := range groups {
			if g == nil {
				continue
			}
			for _, c := range g.List {
				if strings.HasPrefix(strings.TrimSpace(c.Text), exhaustiveMarker) {
					return true
				}
			}
		}
		return false
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if hasMarker(gd.Doc, ts.Doc, ts.Comment) {
					marked[ts.Name.Name] = true
				}
			}
		}
	}
	if len(marked) == 0 {
		return nil
	}
	out := map[string]*EnumFact{}
	scope := pkg.Types.Scope()
	for name := range marked {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		e := &EnumFact{}
		for _, cname := range scope.Names() {
			c, ok := scope.Lookup(cname).(*types.Const)
			if !ok {
				continue
			}
			if n := namedOf(c.Type()); n == nil || n.Obj() != tn {
				continue
			}
			v, ok := constant.Int64Val(c.Val())
			if !ok {
				if u, uok := constant.Uint64Val(c.Val()); uok {
					v, ok = int64(u), true
				}
			}
			if !ok {
				continue
			}
			e.Members = append(e.Members, EnumMember{Name: cname, Val: v})
		}
		sort.Slice(e.Members, func(i, j int) bool {
			if e.Members[i].Val != e.Members[j].Val {
				return e.Members[i].Val < e.Members[j].Val
			}
			return e.Members[i].Name < e.Members[j].Name
		})
		out[pkg.Types.Path()+"."+name] = e
	}
	return out
}

func containsStr(have []string, s string) bool {
	for _, h := range have {
		if h == s {
			return true
		}
	}
	return false
}

func containsInt(have []int, x int) bool {
	for _, h := range have {
		if h == x {
			return true
		}
	}
	return false
}
