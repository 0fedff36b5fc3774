package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Payloadown enforces the arena ownership contract around
// *transport.Request (established in PR 6, the zero-alloc payload path):
//
//   - A handler's req.Payload — and any zero-copy view decoded from it
//     (a value whose type carries the generated ERMIViews marker, or a
//     []byte aliasing the payload) — is only valid until the response is
//     written. A handler that lets such a value escape its own lifetime
//     (stores it through the receiver or a global, sends it on a channel,
//     or hands it to a spawned goroutine) must call req.Retain() first to
//     detach the slab from arena recycling.
//
//   - A handler returning transport.Encode output hands the buffer over
//     outright and must set req.ReleaseReply = true so the server recycles
//     the slab after the response write; conversely a handler returning
//     payload-derived memory must NOT set it, or the transport releases a
//     buffer the handler never owned.
//
// The check is a source-order flow approximation over each function that
// takes a *transport.Request parameter: passing a tracked value to an
// ordinary (synchronous) call is fine — the callee finishes inside the
// handler's lifetime — and defers run before the response is released, so
// neither counts as an escape. The transport package itself is exempt: it
// owns the lifecycle these rules describe.
var Payloadown = &Analyzer{
	Name: "payloadown",
	Doc:  "check that pooled request payloads are Retained before any zero-copy view escapes the handler, and that ReleaseReply marks exactly the arena-owned replies",
	Run:  runPayloadown,
}

func runPayloadown(pass *Pass) {
	if pkgElem(pass.Pkg) == "transport" {
		return
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
			if req := requestParam(pass.TypesInfo, ftyp); req != nil {
				// The ownership walk handles nested function literals
				// itself (shared state for synchronous ones, a fresh check
				// for ones that bind their own request).
				checkPayloadOwnership(pass, ftyp, body, req)
				return false
			}
			return true
		})
	}
}

// payloadCheck is the per-function state of one ownership walk.
type payloadCheck struct {
	pass *Pass
	req  *types.Var     // the *transport.Request parameter
	body *ast.BlockStmt // function body (guard-coverage root)

	tracked map[*types.Var]bool // locals aliasing the payload slab
	encoded map[*types.Var]bool // locals holding transport.Encode output

	retains  []token.Pos // req.Retain() call positions
	releases []token.Pos // req.ReleaseReply = true positions

	escapes []escape
	returns []retInfo
}

type escape struct {
	pos  token.Pos
	what string
}

type retInfo struct {
	pos        token.Pos
	arenaOwned bool // returns transport.Encode output
	payload    bool // returns payload-derived memory
}

func checkPayloadOwnership(pass *Pass, ftyp *ast.FuncType, body *ast.BlockStmt, req *types.Var) {
	ck := &payloadCheck{
		pass:    pass,
		req:     req,
		body:    body,
		tracked: make(map[*types.Var]bool),
		encoded: make(map[*types.Var]bool),
	}
	ck.walk(body)

	for _, e := range ck.escapes {
		if !anyCovers(body, ck.retains, e.pos) {
			pass.Reportf(e.pos, "request payload view escapes the handler (%s) without req.Retain(): the arena slab is recycled after the response is written and the view will alias reused memory", e.what)
		}
	}
	if !handlerShaped(pass.TypesInfo, ftyp) {
		return
	}
	for _, r := range ck.returns {
		released := anyCovers(body, ck.releases, r.pos)
		if r.arenaOwned && !released {
			pass.Reportf(r.pos, "handler returns transport.Encode output without setting req.ReleaseReply = true: the reply slab is never returned to the arena")
		}
		if r.payload && released {
			pass.Reportf(r.pos, "handler returns payload-derived memory with req.ReleaseReply set: the transport would release a buffer the handler does not own")
		}
	}
}

// handlerShaped reports whether the signature returns ([]byte, error) —
// the transport.Handler shape whose first result the server may release.
func handlerShaped(info *types.Info, ftyp *ast.FuncType) bool {
	if ftyp.Results == nil || len(ftyp.Results.List) == 0 {
		return false
	}
	var results []types.Type
	for _, f := range ftyp.Results.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		if t, ok := info.Types[f.Type]; ok {
			for i := 0; i < n; i++ {
				results = append(results, t.Type)
			}
		}
	}
	if len(results) != 2 {
		return false
	}
	sl, ok := results[0].Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte && types.Identical(results[1], types.Universe.Lookup("error").Type())
}

// walk visits stmts in source order, updating alias state and recording
// guards, escapes and returns.
func (ck *payloadCheck) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			ck.assign(t)
		case *ast.CallExpr:
			ck.call(t)
		case *ast.SendStmt:
			if ck.trackedExpr(t.Value) {
				ck.escapes = append(ck.escapes, escape{t.Arrow, "sent on a channel"})
			}
		case *ast.GoStmt:
			ck.goStmt(t)
			return false // the closure body is judged as a whole, not re-walked
		case *ast.ReturnStmt:
			ck.ret(t)
		case *ast.FuncLit:
			// A nested function literal that is not a go-statement target
			// runs synchronously (called inline or deferred): walk it with
			// the same state, so captured views keep their tracking. One
			// that binds its own *transport.Request is a different handler
			// — give it a fresh check.
			if rp := requestParam(ck.pass.TypesInfo, t.Type); rp != nil && rp != ck.req {
				checkPayloadOwnership(ck.pass, t.Type, t.Body, rp)
				return false
			}
		}
		return true
	})
}

func (ck *payloadCheck) assign(a *ast.AssignStmt) {
	// req.ReleaseReply = true / false
	for i, lhs := range a.Lhs {
		if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && sel.Sel.Name == "ReleaseReply" {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && ck.pass.TypesInfo.Uses[id] == ck.req {
				if i < len(a.Rhs) {
					if bl, ok := ast.Unparen(a.Rhs[i]).(*ast.Ident); ok && bl.Name == "true" {
						ck.releases = append(ck.releases, a.Pos())
					}
				}
			}
		}
	}
	// Alias propagation and escape-by-store. Only the pairwise form is
	// modeled; multi-value assignments from calls reset the targets.
	if len(a.Lhs) == len(a.Rhs) {
		for i := range a.Lhs {
			ck.assignPair(a.Lhs[i], a.Rhs[i])
		}
		return
	}
	// x, err := f(...): Encode returns one value, so clear the targets.
	for _, lhs := range a.Lhs {
		if v := ck.localVar(lhs); v != nil {
			delete(ck.tracked, v)
			delete(ck.encoded, v)
		}
	}
}

func (ck *payloadCheck) assignPair(lhs, rhs ast.Expr) {
	trackedRHS := ck.trackedExpr(rhs)
	if v := ck.localVar(lhs); v != nil {
		delete(ck.tracked, v)
		delete(ck.encoded, v)
		if trackedRHS {
			ck.tracked[v] = true
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isEncodeCall(ck.pass.TypesInfo, call) {
			ck.encoded[v] = true
		}
		return
	}
	if trackedRHS && ck.outlivingLHS(lhs) {
		ck.escapes = append(ck.escapes, escape{lhs.Pos(), "stored in memory that outlives the request"})
	}
}

// localVar resolves lhs to a plain local (non-receiver, non-pointer-
// parameter) variable of the function, or nil.
func (ck *payloadCheck) localVar(lhs ast.Expr) *types.Var {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := ck.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = ck.pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
		return nil // package-level var: stores there escape
	}
	return v
}

// outlivingLHS reports whether storing through lhs reaches memory that
// outlives the handler invocation: a package-level variable, or a
// selector/index chain rooted at a pointer (receiver, pointer parameter,
// captured pointer) or at anything not declared in this function.
func (ck *payloadCheck) outlivingLHS(lhs ast.Expr) bool {
	root := rootIdent(lhs)
	if root == nil {
		return true // unrecognized shape: assume the worst
	}
	obj := ck.pass.TypesInfo.Uses[root]
	if obj == nil {
		obj = ck.pass.TypesInfo.Defs[root]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return true
	}
	if v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
		return true // package-level
	}
	// A local value var (a stack struct, a freshly made map) keeps the
	// store inside the handler; a pointer-typed root reaches shared state.
	if _, isPtr := v.Type().Underlying().(*types.Pointer); isPtr {
		return true
	}
	return false
}

func (ck *payloadCheck) call(call *ast.CallExpr) {
	pkgBase, recv, name, ok := calleeName(ck.pass.TypesInfo, call)
	if !ok {
		return
	}
	// req.Retain()
	if recv == "Request" && pkgBase == "transport" && name == "Retain" {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && ck.pass.TypesInfo.Uses[id] == ck.req {
				ck.retains = append(ck.retains, call.Pos())
			}
		}
		return
	}
	// helper(req, ...) where the helper's fact says it retains the request
	// or sets ReleaseReply counts as that guard happening here: the fact
	// table sees through the call, wherever the helper lives.
	if fact := ck.pass.Facts.Fn(calleeFactKey(ck.pass.TypesInfo, call)); fact != nil && (fact.RetainsReq || fact.ReleasesReply) {
		passesReq := false
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && ck.pass.TypesInfo.Uses[id] == ck.req {
				passesReq = true
				break
			}
		}
		if passesReq {
			if fact.RetainsReq {
				ck.retains = append(ck.retains, call.Pos())
			}
			if fact.ReleasesReply {
				ck.releases = append(ck.releases, call.Pos())
			}
		}
	}
	// transport.Decode(req.Payload, &v) with a view-holding target type
	// makes v an alias of the payload slab.
	if pkgBase == "transport" && recv == "" && name == "Decode" && len(call.Args) == 2 {
		if !ck.trackedExpr(call.Args[0]) {
			return
		}
		target := ast.Unparen(call.Args[1])
		un, ok := target.(*ast.UnaryExpr)
		if !ok || un.Op != token.AND {
			return
		}
		if id, ok := ast.Unparen(un.X).(*ast.Ident); ok {
			if v, ok := ck.pass.TypesInfo.Uses[id].(*types.Var); ok && hasMethod(v.Type(), "ERMIViews") {
				ck.tracked[v] = true
			}
		}
	}
}

func (ck *payloadCheck) goStmt(g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if ck.trackedExpr(arg) {
			ck.escapes = append(ck.escapes, escape{arg.Pos(), "passed to a spawned goroutine"})
		}
	}
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.Ident:
				if v, ok := ck.pass.TypesInfo.Uses[t].(*types.Var); ok && (ck.tracked[v] || v == ck.req) {
					ck.escapes = append(ck.escapes, escape{t.Pos(), "captured by a spawned goroutine"})
					return false
				}
			}
			return true
		})
	}
}

func (ck *payloadCheck) ret(r *ast.ReturnStmt) {
	if len(r.Results) == 0 {
		return
	}
	first := ast.Unparen(r.Results[0])
	info := retInfo{pos: r.Pos()}
	switch t := first.(type) {
	case *ast.CallExpr:
		info.arenaOwned = isEncodeCall(ck.pass.TypesInfo, t)
	case *ast.Ident:
		if v, ok := ck.pass.TypesInfo.Uses[t].(*types.Var); ok {
			info.arenaOwned = ck.encoded[v]
			info.payload = ck.tracked[v]
		}
	default:
		info.payload = ck.trackedExpr(first)
	}
	if info.arenaOwned || info.payload {
		ck.returns = append(ck.returns, info)
	}
}

// isEncodeCall reports whether call is transport.Encode.
func isEncodeCall(info *types.Info, call *ast.CallExpr) bool {
	pkgBase, recv, name, ok := calleeName(info, call)
	return ok && pkgBase == "transport" && recv == "" && name == "Encode"
}

// trackedExpr reports whether e evaluates to memory aliasing the request
// payload slab: req.Payload itself (sliced or not), a tracked local, a
// view-holding field chain off a tracked local, a composite literal
// embedding one, or an append whose result still aliases one.
func (ck *payloadCheck) trackedExpr(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch t := e.(type) {
	case *ast.Ident:
		v, ok := ck.pass.TypesInfo.Uses[t].(*types.Var)
		return ok && ck.tracked[v]
	case *ast.SelectorExpr:
		// req.Payload
		if t.Sel.Name == "Payload" {
			if id, ok := ast.Unparen(t.X).(*ast.Ident); ok && ck.pass.TypesInfo.Uses[id] == ck.req {
				return true
			}
		}
		// v.Field where v is tracked and the field can alias (a []byte,
		// a nested view struct, a container of either).
		root := rootIdent(t)
		if root == nil {
			return false
		}
		if v, ok := ck.pass.TypesInfo.Uses[root].(*types.Var); ok && ck.tracked[v] {
			if tv, ok := ck.pass.TypesInfo.Types[e]; ok {
				return mayAlias(tv.Type)
			}
		}
		return false
	case *ast.SliceExpr:
		return ck.trackedExpr(t.X)
	case *ast.IndexExpr:
		if tv, ok := ck.pass.TypesInfo.Types[e]; ok && !mayAlias(tv.Type) {
			return false // indexing a []byte yields a byte: no alias
		}
		return ck.trackedExpr(t.X)
	case *ast.UnaryExpr:
		return t.Op == token.AND && ck.trackedExpr(t.X)
	case *ast.StarExpr:
		return ck.trackedExpr(t.X)
	case *ast.CompositeLit:
		for _, el := range t.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if ck.trackedExpr(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		// append is the one call that can propagate aliases: its result
		// shares dst's backing array, and appending view-holding STRUCTS
		// copies the struct but not the views inside it. Appending spread
		// bytes (append(dst, src...)) copies the bytes themselves — that
		// is the sanctioned copy idiom — so a tracked src... does not
		// taint the result.
		if id, ok := ast.Unparen(t.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := ck.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && len(t.Args) > 0 {
				if ck.trackedExpr(t.Args[0]) {
					return true
				}
				for _, arg := range t.Args[1:] {
					if tv, ok := ck.pass.TypesInfo.Types[arg]; ok && t.Ellipsis != token.NoPos && isByteSlice(tv.Type) {
						continue
					}
					if ck.trackedExpr(arg) {
						return true
					}
				}
			}
		}
		return false
	default:
		return false
	}
}

// mayAlias reports whether a value of type t can carry a reference into
// the payload buffer: []byte, a type with the ERMIViews marker, or a
// slice/array/map/pointer of either. Strings cannot — the generated
// codecs copy string fields on decode.
func mayAlias(t types.Type) bool {
	if hasMethod(t, "ERMIViews") {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok {
			return b.Kind() == types.Byte
		}
		return mayAlias(u.Elem())
	case *types.Array:
		return mayAlias(u.Elem())
	case *types.Map:
		return mayAlias(u.Key()) || mayAlias(u.Elem())
	case *types.Pointer:
		return mayAlias(u.Elem())
	}
	return false
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
