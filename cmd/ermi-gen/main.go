// Command ermi-gen is the ElasticRMI preprocessor for Go — the rmic
// counterpart. It reads Go files declaring interfaces marked with
// `//ermi:elastic` and/or payload structs marked with `//ermi:codec`, and
// writes the generated stubs, skeletons and binary payload codecs next to
// them.
//
// Usage:
//
//	ermi-gen -in service.go                    # writes service_ermi.go
//	ermi-gen -in service.go -out x.go
//	ermi-gen -in server.go,store.go -out c.go  # codec fields may span files
//
// Every method of an elastic interface must have the canonical remote
// signature `Method(arg ArgType) (ReplyType, error)`. Codec structs may use
// scalars, strings, []byte (decoded as zero-copy views), time.Duration,
// time.Time, named local scalar types, nested annotated structs (local, or
// pkg.T from another package), and slices/maps of those; anything else is
// rejected. Every payload type must be annotated: the generated codec is
// the only payload encoding.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"elasticrmi/internal/gen"
)

func main() {
	in := flag.String("in", "", "comma-separated Go files declaring //ermi:elastic interfaces or //ermi:codec structs")
	out := flag.String("out", "", "output file (default <first in>_ermi.go)")
	flag.Parse()
	if err := run(*in, *out); err != nil {
		fmt.Fprintln(os.Stderr, "ermi-gen:", err)
		os.Exit(1)
	}
}

func run(in, out string) error {
	if in == "" {
		return fmt.Errorf("-in is required")
	}
	var inputs []gen.Source
	var baseNames []string
	for _, name := range strings.Split(in, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		inputs = append(inputs, gen.Source{Name: name, Src: src})
		baseNames = append(baseNames, filepath.Base(name))
	}
	if len(inputs) == 0 {
		return fmt.Errorf("-in is required")
	}
	parsed, err := gen.ParseFiles(inputs)
	if err != nil {
		return err
	}
	code, err := gen.Generate(parsed, strings.Join(baseNames, ", "))
	if err != nil {
		return err
	}
	if out == "" {
		out = strings.TrimSuffix(inputs[0].Name, ".go") + "_ermi.go"
	}
	if err := os.WriteFile(out, code, 0o644); err != nil {
		return err
	}
	fmt.Printf("ermi-gen: %s -> %s (%d services, %d codecs)\n",
		in, out, len(parsed.Services), len(parsed.Codecs))
	return nil
}
