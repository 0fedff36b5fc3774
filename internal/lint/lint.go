package lint

// This file is the core of the analysis framework: the
// Analyzer/Pass/Diagnostic types, the per-package runner, and the
// type-query helpers the analyzers share. See doc.go for the package
// overview and the catalogue of invariants enforced.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// An Analyzer is one named invariant check over a typed package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//ermi:ignore <name> <reason>` suppressions.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports violations through pass.Report.
	Run func(pass *Pass)
}

// A Pass is one analyzer's view of one package: the syntax, the type
// information, the fact table, and the report sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package syntax. Test files (*_test.go) are included so
	// type checking sees the whole package, but diagnostics positioned in
	// them are dropped by the runner: the invariants guard production
	// paths, and tests violate them deliberately (fault injection,
	// lifecycle harnesses).
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts is the merged fact table: every function and enum of this
	// package plus everything imported from dependency vetx files (see
	// facts.go). Analyzers look through calls into other packages with it.
	Facts *Facts

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation. Suppressed and Reason are set
// only on UnitResult.Suppressed (the machine-readable output includes
// silenced findings with the reason that silenced them).
type Diagnostic struct {
	Analyzer   string
	Pos        token.Pos
	Position   token.Position
	Message    string
	Suppressed bool
	Reason     string
}

// Package bundles what the runner needs to analyze one package. Both
// drivers (the vet-tool protocol in unitchecker.go and the test harness in
// linttest) construct one and hand it to Analyze.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyze runs the given analyzers over pkg with the imported fact set
// (nil is fine: analysis degrades to package-local) and returns the
// surviving diagnostics: suppressed ones (see ignore.go) are dropped,
// malformed suppression comments are reported under the pseudo-analyzer
// "ignore", and anything positioned in a *_test.go file is discarded.
// Diagnostics come back sorted by position.
func Analyze(pkg *Package, analyzers []*Analyzer, imported *Facts) []Diagnostic {
	return RunAnalyzers(pkg, analyzers, imported).Kept
}

// An AnalyzerTiming is the wall-clock cost of one analyzer (or of the
// fact-table build, under the pseudo-name "facts") over one package.
type AnalyzerTiming struct {
	Name string
	D    time.Duration
}

// A UnitResult is everything one package's analysis produced: surviving
// and suppressed diagnostics, the merged fact table (which the vet driver
// serializes for dependents), and per-analyzer timing.
type UnitResult struct {
	Kept       []Diagnostic
	Suppressed []Diagnostic
	Facts      *Facts
	Timing     []AnalyzerTiming
}

// RunAnalyzers is the full runner under Analyze.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, imported *Facts) *UnitResult {
	res := &UnitResult{}
	start := time.Now()
	facts := BuildFacts(pkg, imported)
	res.Facts = facts
	res.Timing = append(res.Timing, AnalyzerTiming{Name: "facts", D: time.Since(start)})
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Facts:     facts,
			diags:     &diags,
		}
		start = time.Now()
		a.Run(pass)
		res.Timing = append(res.Timing, AnalyzerTiming{Name: a.Name, D: time.Since(start)})
	}
	kept, suppressed := splitSuppressed(pkg, diags)
	res.Kept, res.Suppressed = kept, suppressed
	return res
}

// splitSuppressed applies the suppression and test-file filters and sorts
// both diagnostic lists by position.
func splitSuppressed(pkg *Package, diags []Diagnostic) (kept, suppressed []Diagnostic) {
	ig := collectIgnores(pkg.Fset, pkg.Files)
	for _, d := range diags {
		if strings.HasSuffix(d.Position.Filename, "_test.go") {
			continue
		}
		if reason, ok := ig.suppressedReason(d); ok {
			d.Suppressed = true
			d.Reason = reason
			suppressed = append(suppressed, d)
			continue
		}
		kept = append(kept, d)
	}
	kept = append(kept, ig.malformed(pkg.Fset)...)
	byPos := func(ds []Diagnostic) func(i, j int) bool {
		return func(i, j int) bool {
			a, b := ds[i].Position, ds[j].Position
			if a.Filename != b.Filename {
				return a.Filename < b.Filename
			}
			if a.Line != b.Line {
				return a.Line < b.Line
			}
			return ds[i].Message < ds[j].Message
		}
	}
	sort.Slice(kept, byPos(kept))
	sort.Slice(suppressed, byPos(suppressed))
	return kept, suppressed
}

// All returns the full analyzer suite in reporting order. cmd/ermi-vet
// runs exactly this set.
func All() []*Analyzer {
	return []*Analyzer{Payloadown, Lockorder, Codecstrict, Budgetprop, Goroleak, Errdrop, Exhaustive}
}

// ---- shared type queries ----
//
// The analyzers identify the types they guard structurally — by package
// basename plus type name — rather than by full import path, so the same
// analyzer binds to elasticrmi/internal/transport in the real tree and to
// the stub `transport` package in testdata fixtures. A project-specific
// linter can afford the theoretical collision with an unrelated package
// that happens to be called "transport" and declare a "Request".

// pkgElem returns the last element of pkg's import path ("transport" for
// elasticrmi/internal/transport), or "" for a nil package.
func pkgElem(pkg *types.Package) string {
	if pkg == nil {
		return ""
	}
	path := pkg.Path()
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// namedOf unwraps pointers and aliases down to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// isNamedType reports whether t (possibly behind pointers) is the named
// type pkgBase.name, matching the package by path basename.
func isNamedType(t types.Type, pkgBase, name string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && pkgElem(obj.Pkg()) == pkgBase
}

// hasMethod reports whether t's method set (value or pointer form)
// contains a method called name.
func hasMethod(t types.Type, name string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	for i := 0; i < n.NumMethods(); i++ {
		if n.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// isTransportRequest reports whether t is transport.Request (possibly
// behind a pointer).
func isTransportRequest(t types.Type) bool {
	return isNamedType(t, "transport", "Request")
}

// requestParam returns the *transport.Request parameter object of fn's
// signature (parameters only — a Request receiver would be transport
// internals, which own the lifecycle), or nil.
func requestParam(info *types.Info, fn *ast.FuncType) *types.Var {
	if fn == nil || fn.Params == nil {
		return nil
	}
	for _, field := range fn.Params.List {
		for _, name := range field.Names {
			obj, ok := info.Defs[name].(*types.Var)
			if ok && obj != nil && isTransportRequest(obj.Type()) {
				return obj
			}
		}
	}
	return nil
}

// funcScopeOf returns the types scope of the function or function literal
// node, or nil.
func funcScopeOf(info *types.Info, node ast.Node) *types.Scope {
	switch n := node.(type) {
	case *ast.FuncDecl:
		if obj, ok := info.Defs[n.Name].(*types.Func); ok && obj != nil {
			return obj.Scope()
		}
	case *ast.FuncLit:
		if sc, ok := info.Scopes[n.Type]; ok {
			return sc
		}
	}
	return nil
}

// declaredIn reports whether obj is declared inside scope (inclusive).
func declaredIn(obj types.Object, scope *types.Scope) bool {
	if obj == nil || scope == nil {
		return false
	}
	for s := obj.Parent(); s != nil; s = s.Parent() {
		if s == scope {
			return true
		}
	}
	return false
}

// rootIdent returns the identifier at the base of a selector/index/slice
// chain (x in x.f[i].g), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// calleeName resolves a call expression to (pkgBase, recvType, name):
// for a package function call transport.Dial → ("transport", "", "Dial");
// for a method call c.CallDecode where c is *transport.Client →
// ("transport", "Client", "CallDecode"). Unresolvable shapes return
// ok=false.
func calleeName(info *types.Info, call *ast.CallExpr) (pkgBase, recv, name string, ok bool) {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj, _ := info.Uses[fn].(*types.Func)
		if obj == nil {
			return "", "", "", false
		}
		return pkgElem(obj.Pkg()), "", obj.Name(), true
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok && sel.Kind() == types.MethodVal {
			m := sel.Obj()
			rn := namedOf(sel.Recv())
			recvName := ""
			if rn != nil {
				recvName = rn.Obj().Name()
			}
			return pkgElem(m.Pkg()), recvName, m.Name(), true
		}
		// Package-qualified call: transport.Dial(...).
		if obj, ok := info.Uses[fn.Sel].(*types.Func); ok {
			return pkgElem(obj.Pkg()), "", obj.Name(), true
		}
	}
	return "", "", "", false
}
