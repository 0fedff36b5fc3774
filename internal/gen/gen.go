// Package gen implements the ElasticRMI preprocessor for Go — the
// counterpart of the paper's rmic-like tool that "analyzes elastic classes
// to generate stubs and skeletons for client-server communication" (§2.3).
//
// Given a Go source file declaring one or more elastic interfaces — an
// interface whose methods all have the canonical remote signature
//
//	Method(arg ArgType) (ReplyType, error)
//
// and that is marked with a `//ermi:elastic` comment — the generator emits
// a sibling file containing, per interface:
//
//   - a typed client stub (NameStub) whose methods marshal through
//     core.Stub, so the elastic object pool is invoked like a local object;
//   - a skeleton registration function (RegisterName) binding an
//     implementation to a core.Mux method table;
//   - a factory adaptor (NewNameFactory) producing a core.Factory from an
//     application constructor.
package gen

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"text/template"
)

// Marker is the comment that selects interfaces for generation.
const Marker = "//ermi:elastic"

// AffinityMarker annotates one method of an elastic interface with a key
// extractor: `//ermi:affinity Field` names a string-typed field of the
// argument type, and the generated stub grows a NameWithAffinity variant
// that routes the invocation by consistent-hash affinity on that field
// (same key, same pool member — see core.CallKeyed).
const AffinityMarker = "//ermi:affinity"

// Method is one remote method of an elastic interface.
type Method struct {
	Name      string
	ArgType   string
	ReplyType string
	// KeyField is the argument field named by an //ermi:affinity
	// annotation ("" = no affinity variant generated).
	KeyField string
}

// Service is one elastic interface.
type Service struct {
	Name    string
	Methods []Method
}

// File is the parsed input.
type File struct {
	Package  string
	Services []Service
	Codecs   []Codec
}

// Source is one named input file.
type Source struct {
	Name string
	Src  []byte
}

// Parse extracts the elastic interfaces and codec types from one Go source
// file. See ParseFiles.
func Parse(filename string, src []byte) (*File, error) {
	return ParseFiles([]Source{{Name: filename, Src: src}})
}

// ParseFiles extracts the elastic interfaces and `//ermi:codec` payload
// types from one or more Go source files of the same package. Interfaces
// must be marked with the `//ermi:elastic` comment directly above the type
// declaration (or in its doc group); every method must have the canonical
// signature `Method(arg ArgType) (ReplyType, error)` — anything else is an
// error, mirroring how the paper's preprocessor rejects non-remote-able
// declarations. Codec field resolution sees the named types of every input
// file, so payload structs may nest types declared in a sibling file.
func ParseFiles(inputs []Source) (*File, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("gen: no input files")
	}
	out := &File{}
	decls := typeDecls{}
	imports := importPaths{}
	codecMarked := map[string]bool{}
	var declOrder []string
	fset := token.NewFileSet()
	for _, in := range inputs {
		f, err := parser.ParseFile(fset, in.Name, in.Src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("gen: parse %s: %w", in.Name, err)
		}
		if out.Package == "" {
			out.Package = f.Name.Name
		} else if out.Package != f.Name.Name {
			return nil, fmt.Errorf("gen: %s is package %s, want %s", in.Name, f.Name.Name, out.Package)
		}
		collectCodecs(f, decls, codecMarked)
		collectImports(f, imports)
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				declOrder = append(declOrder, ts.Name.Name)
				it, ok := ts.Type.(*ast.InterfaceType)
				if !ok {
					continue
				}
				if !marked(gd.Doc) && !marked(ts.Doc) && !marked(ts.Comment) {
					continue
				}
				svc, err := parseInterface(ts.Name.Name, it)
				if err != nil {
					return nil, err
				}
				out.Services = append(out.Services, svc)
			}
		}
	}
	codecs, err := resolveCodecs(decls, imports, codecMarked, declOrder)
	if err != nil {
		return nil, err
	}
	out.Codecs = codecs
	if len(out.Services) == 0 && len(out.Codecs) == 0 {
		return nil, fmt.Errorf("gen: %s declares no interfaces marked %s and no types marked %s",
			inputs[0].Name, Marker, CodecMarker)
	}
	return out, nil
}

func marked(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.TrimSpace(c.Text) == Marker {
			return true
		}
	}
	return false
}

func parseInterface(name string, it *ast.InterfaceType) (Service, error) {
	svc := Service{Name: name}
	for _, field := range it.Methods.List {
		fn, ok := field.Type.(*ast.FuncType)
		if !ok {
			return Service{}, fmt.Errorf("gen: %s embeds another interface; embedding is not supported", name)
		}
		if len(field.Names) == 0 {
			continue
		}
		mname := field.Names[0].Name
		m, err := parseMethod(name, mname, fn)
		if err != nil {
			return Service{}, err
		}
		m.KeyField, err = affinityField(name, mname, field.Doc, field.Comment)
		if err != nil {
			return Service{}, err
		}
		svc.Methods = append(svc.Methods, m)
	}
	if len(svc.Methods) == 0 {
		return Service{}, fmt.Errorf("gen: interface %s has no methods", name)
	}
	return svc, nil
}

// affinityField extracts the //ermi:affinity annotation from a method's
// comment groups. The named field must be a plain identifier; it is
// expected to be a string-typed field of the method's argument type (the
// generated code fails to compile otherwise, which is the diagnostic).
func affinityField(iface, method string, groups ...*ast.CommentGroup) (string, error) {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, AffinityMarker) {
				continue
			}
			field := strings.TrimSpace(strings.TrimPrefix(text, AffinityMarker))
			if field == "" || !token.IsIdentifier(field) {
				return "", fmt.Errorf("gen: %s.%s: %s needs a field name, e.g. `%s Key`",
					iface, method, AffinityMarker, AffinityMarker)
			}
			return field, nil
		}
	}
	return "", nil
}

func parseMethod(iface, name string, fn *ast.FuncType) (Method, error) {
	bad := func(why string) (Method, error) {
		return Method{}, fmt.Errorf(
			"gen: %s.%s: %s; elastic methods must look like M(arg A) (R, error)", iface, name, why)
	}
	if fn.Params == nil || len(fn.Params.List) != 1 || len(fn.Params.List[0].Names) > 1 {
		return bad("need exactly one argument")
	}
	if fn.Results == nil || len(fn.Results.List) != 2 {
		return bad("need exactly (Reply, error) results")
	}
	errIdent, ok := fn.Results.List[1].Type.(*ast.Ident)
	if !ok || errIdent.Name != "error" {
		return bad("second result must be error")
	}
	argType, err := typeString(fn.Params.List[0].Type)
	if err != nil {
		return bad(err.Error())
	}
	replyType, err := typeString(fn.Results.List[0].Type)
	if err != nil {
		return bad(err.Error())
	}
	return Method{Name: name, ArgType: argType, ReplyType: replyType}, nil
}

// typeString renders the small subset of type expressions remote signatures
// use: identifiers, qualified identifiers, pointers, slices, maps and
// struct{}.
func typeString(e ast.Expr) (string, error) {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name, nil
	case *ast.SelectorExpr:
		base, err := typeString(t.X)
		if err != nil {
			return "", err
		}
		return base + "." + t.Sel.Name, nil
	case *ast.StarExpr:
		inner, err := typeString(t.X)
		if err != nil {
			return "", err
		}
		return "*" + inner, nil
	case *ast.ArrayType:
		if t.Len != nil {
			return "", fmt.Errorf("fixed-size arrays are not supported")
		}
		inner, err := typeString(t.Elt)
		if err != nil {
			return "", err
		}
		return "[]" + inner, nil
	case *ast.MapType:
		k, err := typeString(t.Key)
		if err != nil {
			return "", err
		}
		v, err := typeString(t.Value)
		if err != nil {
			return "", err
		}
		return "map[" + k + "]" + v, nil
	case *ast.StructType:
		if t.Fields == nil || len(t.Fields.List) == 0 {
			return "struct{}", nil
		}
		return "", fmt.Errorf("inline struct types are not supported (name them)")
	default:
		return "", fmt.Errorf("unsupported type expression %T", e)
	}
}

var tmpl = template.Must(template.New("gen").Parse(`// Code generated by ermi-gen. DO NOT EDIT.
//
// Stubs, skeletons and payload codecs for {{.Source}} — the output the
// ElasticRMI preprocessor produces for elastic classes (§2.3 of "Elastic
// Remote Methods", MIDDLEWARE 2013).

package {{.Package}}

import (
{{range .Imports}}	{{printf "%q" .}}
{{end}})
{{range .Services}}
// {{.Name}}Stub is the generated client stub for {{.Name}}: the client's
// local representative of the elastic object pool. The existence of a pool
// of objects is known to the stub but not to the client application.
type {{.Name}}Stub struct {
	stub *core.Stub
}

var _ {{.Name}} = (*{{.Name}}Stub)(nil)

// New{{.Name}}Stub wraps a located pool in the typed stub.
func New{{.Name}}Stub(stub *core.Stub) *{{.Name}}Stub {
	return &{{.Name}}Stub{stub: stub}
}

// Lookup{{.Name}} resolves the pool name through the registry and returns
// the typed stub.
func Lookup{{.Name}}(name string, reg *core.RegistryClient, opts ...core.StubOption) (*{{.Name}}Stub, error) {
	s, err := core.LookupStub(name, reg, opts...)
	if err != nil {
		return nil, err
	}
	return New{{.Name}}Stub(s), nil
}

// Close releases the stub's connections.
func (s *{{.Name}}Stub) Close() error { return s.stub.Close() }
{{$svc := .Name}}{{range .Methods}}
// {{.Name}} invokes the remote method on the elastic pool.
func (s *{{$svc}}Stub) {{.Name}}(arg {{.ArgType}}) ({{.ReplyType}}, error) {
	return core.Call[{{.ArgType}}, {{.ReplyType}}](s.stub, {{printf "%q" .Name}}, arg)
}

// {{.Name}}Async starts the invocation without blocking and returns its
// typed future; many calls can be pipelined from one goroutine.
func (s *{{$svc}}Stub) {{.Name}}Async(arg {{.ArgType}}) *core.Future[{{.ReplyType}}] {
	return core.GoCall[{{.ArgType}}, {{.ReplyType}}](s.stub, {{printf "%q" .Name}}, arg)
}

// {{.Name}}OneWay fires the invocation without waiting for — or the pool
// ever sending — a response. Delivery is at-most-once.
func (s *{{$svc}}Stub) {{.Name}}OneWay(arg {{.ArgType}}) error {
	return core.OneWayCall[{{.ArgType}}](s.stub, {{printf "%q" .Name}}, arg)
}
{{if .KeyField}}
// {{.Name}}WithAffinity invokes {{.Name}} routed by consistent-hash key
// affinity on arg.{{.KeyField}}: every invocation carrying the same key
// lands on the same pool member (across all stubs holding the same routing
// table), keeping member-local state for that key hot.
func (s *{{$svc}}Stub) {{.Name}}WithAffinity(arg {{.ArgType}}) ({{.ReplyType}}, error) {
	return core.CallKeyed[{{.ArgType}}, {{.ReplyType}}](s.stub, {{printf "%q" .Name}}, string(arg.{{.KeyField}}), arg)
}
{{end}}{{end}}
// Register{{.Name}} binds an implementation to the method table of a
// skeleton (the generated server-side dispatch).
func Register{{.Name}}(mux *core.Mux, impl {{.Name}}) {
{{- range .Methods}}
	core.Handle(mux, {{printf "%q" .Name}}, impl.{{.Name}})
{{- end}}
}

// New{{.Name}}Factory adapts an application constructor into a core.Factory
// whose objects dispatch through the generated skeleton table.
func New{{.Name}}Factory(newImpl func(ctx *core.MemberContext) ({{.Name}}, error)) core.Factory {
	return func(ctx *core.MemberContext) (core.Object, error) {
		impl, err := newImpl(ctx)
		if err != nil {
			return nil, err
		}
		mux := core.NewMux()
		Register{{.Name}}(mux, impl)
		if sizer, ok := impl.(core.PoolSizer); ok {
			return &sized{{.Name}}Object{mux: mux, sizer: sizer}, nil
		}
		return mux, nil
	}
}

// sized{{.Name}}Object forwards ChangePoolSize when the implementation is
// fine-grained, so the runtime selects the fine policy (§3.3).
type sized{{.Name}}Object struct {
	mux   *core.Mux
	sizer core.PoolSizer
}

// HandleCall implements core.Object.
func (o *sized{{.Name}}Object) HandleCall(method string, arg []byte) ([]byte, error) {
	return o.mux.HandleCall(method, arg)
}

// HandleRequest implements core.RequestHandler: the skeleton's hot path
// keeps the payload's arena lifetime visible to the typed handlers.
func (o *sized{{.Name}}Object) HandleRequest(req *transport.Request) ([]byte, error) {
	return o.mux.HandleRequest(req)
}

// ChangePoolSize implements core.PoolSizer.
func (o *sized{{.Name}}Object) ChangePoolSize() int { return o.sizer.ChangePoolSize() }
{{end}}{{.CodecSource}}`))

// Generate emits the stub/skeleton/codec source for a parsed file.
func Generate(f *File, sourceName string) ([]byte, error) {
	var imports []string
	if len(f.Services) > 0 {
		imports = append(imports, "elasticrmi/internal/core", "elasticrmi/internal/transport")
	}
	if len(f.Codecs) > 0 {
		imports = append(imports, "elasticrmi/internal/ermic")
		for _, p := range codecImports(f.Codecs) {
			if !slices.Contains(imports, p) {
				imports = append(imports, p)
			}
		}
	}
	var buf bytes.Buffer
	err := tmpl.Execute(&buf, struct {
		Package     string
		Source      string
		Imports     []string
		Services    []Service
		CodecSource string
	}{
		Package: f.Package, Source: sourceName, Imports: imports,
		Services: f.Services, CodecSource: emitCodecs(f.Codecs),
	})
	if err != nil {
		return nil, fmt.Errorf("gen: template: %w", err)
	}
	out, err := format.Source(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("gen: generated code does not format: %w\n%s", err, buf.String())
	}
	return out, nil
}
