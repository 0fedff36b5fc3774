package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lockorder guards the locking discipline around the project's named
// mutexes (the ones that serialize hot-path state):
//
//   - No blocking operation — dialing, a synchronous transport call,
//     sleeping, fsync, an unguarded channel operation, or a call to ANY
//     function that transitively does one of those — may run while one of
//     the flagged mutexes is held exclusively. PR 8 shipped exactly this
//     bug: ClusterSession dialed a new shard session under cs.mu, so one
//     unreachable shard stalled every cached read.
//
//   - Flagged mutexes must be acquired in a consistent order: the
//     analyzer builds an acquisition graph (edges from each held mutex to
//     each newly acquired one, including acquisitions made by callees)
//     and reports cycles, plus direct re-entry (locking a mutex the
//     function may already hold).
//
// Read-held (RLock) regions are exempt from the blocking check: the
// cluster read gate deliberately spans RPCs so membership changes
// serialize against in-flight operations. They still contribute
// acquisition-order edges.
//
// Callee behavior comes from the pass's fact table (factbuild.go): local
// functions and imported packages alike, so a kvstore method that calls a
// core helper that calls transport.Client.Call is a blocking op under
// viewMu even though no blocking primitive appears in kvstore. The
// per-function walk stays syntax-directed (straight-line lock regions with
// branch-local cloning), which matches how this codebase writes critical
// sections.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc:  "check that no blocking operation runs under a flagged mutex and that flagged mutexes are acquired in a consistent order",
	Run:  runLockorder,
}

// flaggedMutexes names the guarded locks as pkg-basename → type →
// field. Adding a newly-introduced mutex here is how it joins the
// discipline.
var flaggedMutexes = map[string]map[string]map[string]bool{
	"transport": {
		"Client": {"mu": true},
		"Server": {"mu": true},
	},
	"kvstore": {
		"Store":      {"mu": true},
		"Server":     {"viewMu": true},
		"sessionMgr": {"mu": true},
		// Cluster.mu is deliberately absent: it is the management-plane
		// topology gate, documented to be held (exclusively during
		// membership changes, shared across routed operations) while RPCs
		// are in flight, so every change serializes against every in-flight
		// operation. Its hold times are bounded by probe/dial timeouts, not
		// by the hot path.
		"Cluster":        {"sessMu": true, "repairMu": true},
		"ClusterSession": {"mu": true},
		"Session":        {"mu": true},
		"Client":         {"mu": true},
	},
}

// mutexKey names one flagged mutex: "kvstore.Cluster.mu".
type mutexKey string

// lockOp classifies one method call on a flagged mutex.
type lockOp struct {
	key   mutexKey
	op    string // Lock, RLock, TryLock, Unlock, RUnlock
	write bool   // exclusive acquisition
}

// mutexOp decodes call as `recv.field.Op()` on a flagged mutex.
func mutexOp(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock":
	default:
		return lockOp{}, false
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	tv, ok := info.Types[field.X]
	if !ok {
		return lockOp{}, false
	}
	n := namedOf(tv.Type)
	if n == nil {
		return lockOp{}, false
	}
	base := pkgElem(n.Obj().Pkg())
	if !flaggedMutexes[base][n.Obj().Name()][field.Sel.Name] {
		return lockOp{}, false
	}
	return lockOp{
		key:   mutexKey(base + "." + n.Obj().Name() + "." + field.Sel.Name),
		op:    op,
		write: op == "Lock" || op == "TryLock",
	}, true
}

// blockingCall classifies a resolved callee as inherently blocking.
func blockingCall(pkgBase, recv, name string) (string, bool) {
	switch {
	case strings.HasPrefix(name, "Dial") && (pkgBase == "transport" || pkgBase == "net" || pkgBase == "kvstore"):
		return pkgBase + "." + name + " (connection setup)", true
	case pkgBase == "transport" && recv == "Client" &&
		(name == "Start" || name == "Call" || name == "CallDecode" || name == "OneWay"):
		return "transport call " + name, true
	case name == "Sleep":
		who := recv
		if who == "" {
			who = pkgBase
		}
		return who + ".Sleep", true
	case pkgBase == "os" && recv == "File" && name == "Sync":
		return "os.File.Sync (fsync)", true
	case pkgBase == "sync" && recv == "WaitGroup" && name == "Wait":
		return "sync.WaitGroup.Wait", true
	}
	return "", false
}

func runLockorder(pass *Pass) {
	g := &lockGraph{edges: map[mutexKey]map[mutexKey]token.Pos{}}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lc := &lockCheck{pass: pass, graph: g}
			lc.block(fd.Body.List, map[mutexKey]*holdInfo{})
		}
	}
	g.reportCycles(pass)
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// holdInfo records one held mutex.
type holdInfo struct {
	write bool
	pos   token.Pos
}

// lockGraph accumulates acquisition-order edges across the package.
type lockGraph struct {
	edges map[mutexKey]map[mutexKey]token.Pos
}

func (g *lockGraph) add(from, to mutexKey, pos token.Pos) {
	if from == to {
		return // re-entry is reported at the acquisition site, not as a cycle
	}
	m := g.edges[from]
	if m == nil {
		m = map[mutexKey]token.Pos{}
		g.edges[from] = m
	}
	if _, ok := m[to]; !ok {
		m[to] = pos
	}
}

// reportCycles reports each acquisition-order cycle once, at the edge
// that closes it.
func (g *lockGraph) reportCycles(pass *Pass) {
	keys := make([]mutexKey, 0, len(g.edges))
	for k := range g.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	reported := map[string]bool{}
	for _, start := range keys {
		// DFS from each node; a path back to the start is a cycle.
		var path []mutexKey
		var walk func(k mutexKey) bool
		seen := map[mutexKey]bool{}
		walk = func(k mutexKey) bool {
			path = append(path, k)
			defer func() { path = path[:len(path)-1] }()
			tos := make([]mutexKey, 0, len(g.edges[k]))
			for to := range g.edges[k] {
				tos = append(tos, to)
			}
			sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
			for _, to := range tos {
				if to == start && len(path) > 1 {
					cyc := append(append([]mutexKey{}, path...), start)
					if min := canonicalCycle(cyc); !reported[min] {
						reported[min] = true
						pass.Reportf(g.edges[k][to], "lock order cycle: %s — acquisitions in inconsistent order can deadlock", cycleString(cyc))
					}
					continue
				}
				if !seen[to] {
					seen[to] = true
					walk(to)
				}
			}
			return false
		}
		seen[start] = true
		walk(start)
	}
}

// canonicalCycle returns a rotation-invariant name for a cycle a→b→a.
func canonicalCycle(cyc []mutexKey) string {
	body := cyc[:len(cyc)-1] // drop repeated start
	mini := 0
	for i := range body {
		if body[i] < body[mini] {
			mini = i
		}
	}
	rot := append(append([]mutexKey{}, body[mini:]...), body[:mini]...)
	parts := make([]string, len(rot))
	for i, k := range rot {
		parts[i] = string(k)
	}
	return strings.Join(parts, "→")
}

func cycleString(cyc []mutexKey) string {
	parts := make([]string, len(cyc))
	for i, k := range cyc {
		parts[i] = string(k)
	}
	return strings.Join(parts, " → ")
}

// lockCheck walks one function, tracking held flagged mutexes. Callee
// behavior — blocking, acquisitions — comes from the pass's fact table,
// which covers this package and everything imported, so a kvstore method
// that calls a core helper that dials is a blocking op here.
type lockCheck struct {
	pass  *Pass
	graph *lockGraph
}

// block analyzes a statement list with the given entry hold-set, returning
// the exit hold-set (nil when the block always terminates in a return or
// panic, so its state never flows onward).
func (lc *lockCheck) block(stmts []ast.Stmt, held map[mutexKey]*holdInfo) map[mutexKey]*holdInfo {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.BlockStmt:
			if out := lc.block(s.List, cloneHeld(held)); out != nil {
				held = out
			}
		case *ast.LabeledStmt:
			if out := lc.block([]ast.Stmt{s.Stmt}, held); out != nil {
				held = out
			}
		case *ast.IfStmt:
			if s.Init != nil {
				lc.leaf(s.Init, held)
			}
			lc.scanExpr(s.Cond, held)
			thenOut := lc.block(s.Body.List, cloneHeld(held))
			var elseOut map[mutexKey]*holdInfo
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseOut = lc.block(e.List, cloneHeld(held))
			case *ast.IfStmt:
				elseOut = lc.block([]ast.Stmt{e}, cloneHeld(held))
			default:
				elseOut = held // no else: fallthrough path keeps entry state
			}
			held = mergeHeld(thenOut, elseOut)
			if held == nil {
				return nil // both arms terminate
			}
		case *ast.ForStmt:
			if s.Init != nil {
				lc.leaf(s.Init, held)
			}
			lc.scanExpr(s.Cond, held)
			lc.block(s.Body.List, cloneHeld(held))
			// Loop bodies are assumed lock-balanced; the entry state flows on.
		case *ast.RangeStmt:
			lc.scanExpr(s.X, held)
			lc.block(s.Body.List, cloneHeld(held))
		case *ast.SwitchStmt, *ast.TypeSwitchStmt:
			var body *ast.BlockStmt
			if sw, ok := s.(*ast.SwitchStmt); ok {
				if sw.Init != nil {
					lc.leaf(sw.Init, held)
				}
				lc.scanExpr(sw.Tag, held)
				body = sw.Body
			} else {
				body = s.(*ast.TypeSwitchStmt).Body
			}
			exits := []map[mutexKey]*holdInfo{held} // no-case-taken path
			for _, cl := range body.List {
				if cc, ok := cl.(*ast.CaseClause); ok {
					exits = append(exits, lc.block(cc.Body, cloneHeld(held)))
				}
			}
			held = mergeAll(exits)
			if held == nil {
				return nil
			}
		case *ast.SelectStmt:
			if !selectHasDefault(s) && len(heldWrite(held)) > 0 {
				lc.reportBlocked(s.Pos(), "a select with no default case", held)
			}
			exits := []map[mutexKey]*holdInfo{}
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok {
					exits = append(exits, lc.block(cc.Body, cloneHeld(held)))
				}
			}
			if merged := mergeAll(exits); merged != nil {
				held = merged
			} else if len(exits) > 0 {
				return nil
			}
		case *ast.ReturnStmt:
			lc.leaf(s, held)
			return nil
		case *ast.DeferStmt:
			lc.deferStmt(s, held)
		case *ast.GoStmt:
			// A goroutine's work is not the spawner's: nothing inside it
			// blocks the held region, and its own lock use is analyzed when
			// its body (if a named function) gets its own walk.
		default:
			lc.leaf(stmt, held)
		}
	}
	return held
}

// deferStmt handles `defer x.mu.Unlock()` (the mutex stays held to the
// end of the function, which is exactly what the caller asked for) and
// scans other deferred calls for blocking work — a deferred blocking call
// executes while every still-held mutex is held.
func (lc *lockCheck) deferStmt(s *ast.DeferStmt, held map[mutexKey]*holdInfo) {
	if op, ok := mutexOp(lc.pass.TypesInfo, s.Call); ok {
		_ = op // deferred unlocks keep the mutex held for the region; nothing to do
		return
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		// Deferred closures commonly just unlock; scan them for blocking
		// ops but let unlocks pass.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, isMu := mutexOp(lc.pass.TypesInfo, call); isMu {
				return true
			}
			lc.checkCall(call, held)
			return true
		})
		return
	}
	lc.checkCall(s.Call, held)
}

// leaf processes a non-control-flow statement: mutex ops first (they
// change state), then blocking scans over the contained expressions.
func (lc *lockCheck) leaf(stmt ast.Stmt, held map[mutexKey]*holdInfo) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			if len(heldWrite(held)) > 0 {
				lc.reportBlocked(t.Pos(), "a channel send", held)
			}
		case *ast.UnaryExpr:
			if t.Op == token.ARROW && len(heldWrite(held)) > 0 {
				lc.reportBlocked(t.Pos(), "a channel receive", held)
			}
		case *ast.CallExpr:
			if op, ok := mutexOp(lc.pass.TypesInfo, t); ok {
				lc.applyLock(op, t.Pos(), held)
				return false
			}
			lc.checkCall(t, held)
		}
		return true
	})
}

// scanExpr blocking-scans one expression (condition, tag, range operand).
func (lc *lockCheck) scanExpr(e ast.Expr, held map[mutexKey]*holdInfo) {
	if e == nil {
		return
	}
	lc.leaf(&ast.ExprStmt{X: e}, held)
}

// applyLock mutates held for one mutex operation and records order edges
// and re-entry.
func (lc *lockCheck) applyLock(op lockOp, pos token.Pos, held map[mutexKey]*holdInfo) {
	switch op.op {
	case "Lock", "RLock", "TryLock":
		if _, already := held[op.key]; already {
			lc.pass.Reportf(pos, "%s acquired while the function may already hold it (self-deadlock)", op.key)
			return
		}
		for from := range held {
			lc.graph.add(from, op.key, pos)
		}
		held[op.key] = &holdInfo{write: op.write, pos: pos}
	case "Unlock", "RUnlock":
		delete(held, op.key)
	}
}

// checkCall reports call if it blocks (directly or via any callee chain,
// same-package or imported) while any flagged mutex is write-held, and
// records acquisition edges for mutexes the callee takes.
func (lc *lockCheck) checkCall(call *ast.CallExpr, held map[mutexKey]*holdInfo) {
	if len(held) == 0 {
		return
	}
	pkgBase, recv, name, ok := calleeName(lc.pass.TypesInfo, call)
	if !ok {
		return
	}
	if why, bad := blockingCall(pkgBase, recv, name); bad {
		if w := heldWrite(held); len(w) > 0 {
			lc.reportBlocked(call.Pos(), why, held)
		}
		return
	}
	if key := calleeFactKey(lc.pass.TypesInfo, call); key != "" {
		if fact := lc.pass.Facts.Fn(key); fact != nil {
			short := shortFactKey(key)
			if fact.Blocks != "" {
				if w := heldWrite(held); len(w) > 0 {
					lc.reportBlocked(call.Pos(), "a call to "+short+" ("+fact.Blocks+")", held)
				}
			}
			for _, acqs := range fact.Acquires {
				acq := mutexKey(acqs)
				if _, already := held[acq]; already {
					lc.pass.Reportf(call.Pos(), "call to %s acquires %s while the function may already hold it (self-deadlock)", short, acq)
					continue
				}
				for from := range held {
					lc.graph.add(from, acq, call.Pos())
				}
			}
		}
	}
}

func (lc *lockCheck) reportBlocked(pos token.Pos, what string, held map[mutexKey]*holdInfo) {
	w := heldWrite(held)
	sort.Strings(w)
	lc.pass.Reportf(pos, "blocking operation (%s) while %s is held: move the blocking work outside the critical section", what, strings.Join(w, ", "))
}

func heldWrite(held map[mutexKey]*holdInfo) []string {
	var out []string
	for k, h := range held {
		if h.write {
			out = append(out, string(k))
		}
	}
	return out
}

func cloneHeld(held map[mutexKey]*holdInfo) map[mutexKey]*holdInfo {
	out := make(map[mutexKey]*holdInfo, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// mergeHeld unions two branch exit states; nil means that branch
// terminated and contributes nothing.
func mergeHeld(a, b map[mutexKey]*holdInfo) map[mutexKey]*holdInfo {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := cloneHeld(a)
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

func mergeAll(exits []map[mutexKey]*holdInfo) map[mutexKey]*holdInfo {
	var out map[mutexKey]*holdInfo
	any := false
	for _, e := range exits {
		if e != nil {
			any = true
			out = mergeHeld(out, e)
		}
	}
	if !any {
		return nil
	}
	return out
}

var _ = fmt.Sprintf // keep fmt for future diagnostics tweaks
