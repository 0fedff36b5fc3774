package gen

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const sample = `package demo

type Args struct{ N int }
type Reply struct{ M int }

//ermi:elastic
type Calc interface {
	Double(arg Args) (Reply, error)
	Tag(arg string) (map[string][]byte, error)
}

// Plain is not marked and must be ignored.
type Plain interface {
	Foo(arg Args) (Reply, error)
}
`

func TestParseExtractsMarkedInterfaces(t *testing.T) {
	f, err := Parse("sample.go", []byte(sample))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Package != "demo" {
		t.Fatalf("package = %q", f.Package)
	}
	if len(f.Services) != 1 {
		t.Fatalf("services = %d, want 1 (unmarked ignored)", len(f.Services))
	}
	svc := f.Services[0]
	if svc.Name != "Calc" || len(svc.Methods) != 2 {
		t.Fatalf("service = %+v", svc)
	}
	if svc.Methods[0].ArgType != "Args" || svc.Methods[0].ReplyType != "Reply" {
		t.Fatalf("method 0 = %+v", svc.Methods[0])
	}
	if svc.Methods[1].ArgType != "string" || svc.Methods[1].ReplyType != "map[string][]byte" {
		t.Fatalf("method 1 = %+v", svc.Methods[1])
	}
}

func TestParseRejectsBadSignatures(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no arg", `package p
//ermi:elastic
type I interface{ M() (int, error) }`},
		{"two args", `package p
//ermi:elastic
type I interface{ M(a, b int) (int, error) }`},
		{"no error", `package p
//ermi:elastic
type I interface{ M(a int) int }`},
		{"second result not error", `package p
//ermi:elastic
type I interface{ M(a int) (int, string) }`},
		{"embedded interface", `package p
type J interface{ M(a int) (int, error) }
//ermi:elastic
type I interface{ J }`},
		{"no marked interface", `package p
type I interface{ M(a int) (int, error) }`},
		{"empty interface", `package p
//ermi:elastic
type I interface{}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse("x.go", []byte(tc.src)); err == nil {
				t.Fatalf("Parse accepted %s", tc.name)
			}
		})
	}
}

func TestGenerateCompilesAndContainsAPI(t *testing.T) {
	f, err := Parse("sample.go", []byte(sample))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out, err := Generate(f, "sample.go")
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	src := string(out)
	for _, want := range []string{
		"type CalcStub struct",
		"func NewCalcStub(stub *core.Stub) *CalcStub",
		"func LookupCalc(name string, reg *core.RegistryClient",
		"func (s *CalcStub) Double(arg Args) (Reply, error)",
		"core.Call[Args, Reply](s.stub, \"Double\", arg)",
		"func RegisterCalc(mux *core.Mux, impl Calc)",
		"func NewCalcFactory(",
		"var _ Calc = (*CalcStub)(nil)",
		"ChangePoolSize() int",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
	// A stub method is synchronous (M) or keyed (MWithAffinity); the typed
	// future and fire-and-forget variants are not generated.
	for _, absent := range []string{"DoubleAsync", "DoubleOneWay", "core.Future", "core.GoCall", "core.OneWayCall"} {
		if strings.Contains(src, absent) {
			t.Errorf("generated code contains %q", absent)
		}
	}
	// The output must itself parse as valid Go.
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", out, 0); err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, src)
	}
}

func TestTypeStringVariants(t *testing.T) {
	src := `package p
//ermi:elastic
type I interface {
	A(arg *Args) ([]Reply, error)
	B(arg []byte) (map[string]int, error)
	C(arg struct{}) (pkg.Qualified, error)
}
type Args struct{}
type Reply struct{}
`
	f, err := Parse("x.go", []byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	m := f.Services[0].Methods
	wants := []Method{
		{Name: "A", ArgType: "*Args", ReplyType: "[]Reply"},
		{Name: "B", ArgType: "[]byte", ReplyType: "map[string]int"},
		{Name: "C", ArgType: "struct{}", ReplyType: "pkg.Qualified"},
	}
	for i, want := range wants {
		if m[i] != want {
			t.Errorf("method %d = %+v, want %+v", i, m[i], want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	f, _ := Parse("sample.go", []byte(sample))
	a, err := Generate(f, "sample.go")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(f, "sample.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("generation is not deterministic")
	}
}

// TestAffinityAnnotation: //ermi:affinity on a method yields KeyField and a
// WithAffinity stub variant; unannotated methods get none; a bare marker is
// rejected.
func TestAffinityAnnotation(t *testing.T) {
	src := `package p
type Args struct{ Key, Val string }
type Reply struct{ OK bool }
//ermi:elastic
type KV interface {
	//ermi:affinity Key
	Put(arg Args) (Reply, error)
	Flush(arg Args) (Reply, error)
}`
	f, err := Parse("kv.go", []byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ms := f.Services[0].Methods
	if ms[0].KeyField != "Key" || ms[1].KeyField != "" {
		t.Fatalf("key fields = %q, %q", ms[0].KeyField, ms[1].KeyField)
	}
	out, err := Generate(f, "kv.go")
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	code := string(out)
	if !strings.Contains(code, "func (s *KVStub) PutWithAffinity(arg Args) (Reply, error)") {
		t.Fatalf("generated code lacks PutWithAffinity:\n%s", code)
	}
	if !strings.Contains(code, `core.CallKeyed[Args, Reply](s.stub, "Put", string(arg.Key), arg)`) {
		t.Fatalf("PutWithAffinity does not route by arg.Key:\n%s", code)
	}
	if strings.Contains(code, "FlushWithAffinity") {
		t.Fatal("unannotated method grew an affinity variant")
	}

	for _, bad := range []string{
		`package p
//ermi:elastic
type I interface {
	//ermi:affinity
	M(a int) (int, error)
}`,
		`package p
//ermi:elastic
type I interface {
	//ermi:affinity two words
	M(a int) (int, error)
}`,
	} {
		if _, err := Parse("bad.go", []byte(bad)); err == nil {
			t.Fatalf("Parse accepted malformed affinity annotation:\n%s", bad)
		}
	}
}
