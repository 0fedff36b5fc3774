package gen

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const codecSample = `package demo

import (
	"time"

	"elasticrmi/internal/route"
)

//ermi:codec
type Payload struct {
	N     int64
	Name  string
	Data  []byte
	When  time.Duration
	At    time.Time
	Tags  map[string]int
	Sides []Side
	Inner Nested
	Table route.Table
}

//ermi:codec
type Nested struct{ OK bool }

type Side int
`

func TestParseExtractsCodecs(t *testing.T) {
	f, err := Parse("codec.go", []byte(codecSample))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(f.Codecs) != 2 {
		t.Fatalf("codecs = %d, want 2", len(f.Codecs))
	}
	// Declaration order is preserved.
	if f.Codecs[0].Name != "Payload" || f.Codecs[1].Name != "Nested" {
		t.Fatalf("codec order = %s, %s", f.Codecs[0].Name, f.Codecs[1].Name)
	}
	// []byte makes the holder viewy; Nested has no views.
	if !f.Codecs[0].Viewy {
		t.Fatal("Payload with a []byte field is not marked viewy")
	}
	if f.Codecs[1].Viewy {
		t.Fatal("Nested without views is marked viewy")
	}
}

func TestCodecViewyPropagation(t *testing.T) {
	src := `package p

import (
	"time"

	"elasticrmi/internal/route"
)

//ermi:codec
type Outer struct{ In Inner }

//ermi:codec
type Inner struct{ Raw []byte }

//ermi:codec
type ViaSlice struct{ Rows [][]byte }

//ermi:codec
type ViaMap struct{ M map[string][]byte }

//ermi:codec
type Clean struct{ S []string }

//ermi:codec
type Foreign struct{ T route.Table }

//ermi:codec
type Stamped struct{ At time.Time }
`
	f, err := Parse("v.go", []byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	viewy := map[string]bool{}
	for _, c := range f.Codecs {
		viewy[c.Name] = c.Viewy
	}
	for name, want := range map[string]bool{
		"Outer": true, "Inner": true, "ViaSlice": true, "ViaMap": true, "Clean": false,
		// A foreign struct's fields are invisible to the generator, so a
		// type nesting one is conservatively viewy.
		"Foreign": true, "Stamped": false,
	} {
		if viewy[name] != want {
			t.Errorf("%s viewy = %v, want %v", name, viewy[name], want)
		}
	}
}

func TestCodecRejectsUnsupportedShapes(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"recursive", `package p
//ermi:codec
type T struct{ Next []T }`},
		{"embedded field", `package p
//ermi:codec
type T struct{ U }
type U struct{ N int }`},
		{"unsupported time type", `package p
import "time"
//ermi:codec
type T struct{ M time.Month }`},
		{"foreign struct", `package p
//ermi:codec
type T struct{ X other.T }`},
		{"fixed array", `package p
//ermi:codec
type T struct{ Sum [32]byte }`},
		{"pointer field", `package p
//ermi:codec
type T struct{ P *int }`},
		{"interface field", `package p
//ermi:codec
type T struct{ V interface{} }`},
		{"channel field", `package p
//ermi:codec
type T struct{ C chan int }`},
		{"undeclared external type", `package p
//ermi:codec
type T struct{ X Foreign }`},
		{"nested struct without marker", `package p
//ermi:codec
type T struct{ In Inner }
type Inner struct{ N int }`},
		{"named type with non-scalar underlying", `package p
//ermi:codec
type T struct{ S Alias }
type Alias []string`},
		{"non-comparable map key", `package p
//ermi:codec
type T struct{ M map[[]byte]int }`},
		{"marked non-struct", `package p
//ermi:codec
type T []int`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse("x.go", []byte(tc.src)); err == nil {
				t.Fatalf("Parse accepted %s", tc.name)
			}
		})
	}
}

// TestCodecMultiFileResolution: a codec type may reference named types
// declared in a sibling source file handed to the same ParseFiles call
// (the -in a.go,b.go form of ermi-gen).
func TestCodecMultiFileResolution(t *testing.T) {
	f, err := ParseFiles([]Source{
		{Name: "a.go", Src: []byte(`package p

//ermi:codec
type Req struct {
	Val  Versioned
	Side Side
}
`)},
		{Name: "b.go", Src: []byte(`package p

//ermi:codec
type Versioned struct {
	Value   []byte
	Version uint64
}

type Side int8
`)},
	})
	if err != nil {
		t.Fatalf("ParseFiles: %v", err)
	}
	if len(f.Codecs) != 2 {
		t.Fatalf("codecs = %d, want 2", len(f.Codecs))
	}
	var req *Codec
	for i := range f.Codecs {
		if f.Codecs[i].Name == "Req" {
			req = &f.Codecs[i]
		}
	}
	if req == nil {
		t.Fatal("Req codec not resolved")
	}
	if !req.Viewy {
		t.Fatal("Req nesting a viewy struct from another file is not viewy")
	}
}

func TestGenerateCodecsCompilesAndIsDeterministic(t *testing.T) {
	f, err := Parse("codec.go", []byte(codecSample))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out, err := Generate(f, "codec.go")
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	src := string(out)
	for _, want := range []string{
		"func (v *Payload) SizeERMI() int",
		"func (v *Payload) MarshalERMI(b []byte) []byte",
		"func (v *Payload) UnmarshalERMI(b []byte) error",
		"func (v *Payload) consumeERMI(b []byte) ([]byte, error)",
		"func (*Payload) ERMIViews() {}",
		"func (v *Nested) SizeERMI() int",
		`"time"`,
		"ermic.AppendTime(b, v.At)",
		"time.Time(x)",
		"b = ermic.AppendUvarint(b, uint64(v.Table.SizeERMI()))",
		"v.Table.UnmarshalERMI(x)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
	// Nested has no view fields: no marker method.
	if strings.Contains(src, "func (*Nested) ERMIViews()") {
		t.Error("Nested grew a spurious ERMIViews marker")
	}
	// route.Table is reached only through its methods: importing route
	// would not compile.
	if strings.Contains(src, `"elasticrmi/internal/route"`) {
		t.Error("generated code imports a package it never names")
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", out, 0); err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, src)
	}
	again, err := Generate(f, "codec.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(again) {
		t.Fatal("codec generation is not deterministic")
	}
}
