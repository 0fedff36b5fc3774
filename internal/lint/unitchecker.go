package lint

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"
)

// The `go vet -vettool=` protocol, implemented directly against the
// contract in cmd/go/internal/work (buildVetConfig / vetActionID): the go
// command probes the tool with -flags (JSON flag inventory) and -V=full
// (version line, hashed into vet's cache key), then invokes it once per
// package with the path of a JSON config file carrying the file set, the
// export data of every dependency, and — the part this suite now uses —
// PackageVetx, a map from each direct import to the fact file its own vet
// run produced. This is the same protocol
// golang.org/x/tools/go/analysis/unitchecker speaks; it is restated here
// so the tool stays dependency-free.
//
// Fact flow: every run (VetxOnly dependency runs included) builds this
// package's function/enum facts merged with everything decoded from
// PackageVetx and writes the merged table to VetxOutput. Because each
// vetx embeds its imports' facts, handing dependents only their direct
// imports' files still gives them the transitive closure. Staleness is
// handled by construction — the go command keys cached vetx files on the
// tool's own hash (see -V=full below) and the dependency's content, and
// if a file is missing or fails to decode (foreign tool, interrupted
// write) the import side just drops it: analysis degrades to
// package-local, losing cross-package findings but never inventing any.

// vetConfig mirrors the subset of cmd/go's vetConfig JSON the suite
// consumes; encoding/json skips the fields it does not name.
type vetConfig struct {
	Compiler   string
	ImportPath string
	GoVersion  string
	GoFiles    []string

	ModulePath  string
	ImportMap   map[string]string
	PackageFile map[string]string
	Standard    map[string]bool
	PackageVetx map[string]string
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

// Main is the entry point of cmd/ermi-vet. It terminates the process.
func Main() {
	jsonMode := os.Getenv("ERMIVET_JSON") != ""
	var cfgPath string
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			// The go command hashes this line into vet's action cache key.
			// Embedding the binary's own content hash means rebuilding
			// ermi-vet with changed analyzers invalidates every cached vet
			// result, exactly like a toolchain upgrade does for stock vet.
			fmt.Printf("ermi-vet version %s\n", selfHash())
			os.Exit(0)
		case arg == "-flags" || arg == "--flags":
			// Advertised flags may be passed on the `go vet` command line;
			// the go command forwards them to every tool invocation.
			fmt.Println(`[{"Name":"json","Bool":true,"Usage":"emit diagnostics as JSON lines on stdout"}]`)
			os.Exit(0)
		case arg == "-json" || arg == "--json" || arg == "-json=true" || arg == "--json=true":
			jsonMode = true
		case arg == "-json=false" || arg == "--json=false":
			jsonMode = false
		case strings.HasSuffix(arg, ".cfg"):
			cfgPath = arg
		}
	}
	if cfgPath == "" {
		fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(which ermi-vet) ./...\n(direct invocation expects a single vet .cfg argument)\n")
		os.Exit(1)
	}
	os.Exit(runUnit(cfgPath, jsonMode))
}

func selfHash() string {
	exe, err := os.Executable()
	if err == nil {
		if f, err := os.Open(exe); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return fmt.Sprintf("%x", h.Sum(nil)[:12])
			}
		}
	}
	return "unknown"
}

func runUnit(cfgPath string, jsonMode bool) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ermi-vet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	imported, hits, misses := readImportedFacts(cfg.PackageVetx)

	// Dependency runs exist to produce facts for their importers. Only
	// module code can carry the invariants this suite reasons about
	// (flagged mutexes, transport budgets, marked enums live here, and
	// direct calls into stdlib primitives are matched by name), so
	// standard-library units get a pass-through vetx instead of a parse
	// and type-check of half of GOROOT.
	if cfg.VetxOnly {
		facts := imported
		if factsWorthBuilding(&cfg) {
			if pkg, err := loadUnit(&cfg); err == nil {
				facts = BuildFacts(pkg, imported)
			}
		}
		writeVetx(cfg.VetxOutput, facts)
		writeStats(&cfg, nil, hits, misses)
		return 0
	}

	pkg, err := loadUnit(&cfg)
	if err != nil {
		writeVetx(cfg.VetxOutput, imported)
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "ermi-vet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	res := RunAnalyzers(pkg, All(), imported)
	writeVetx(cfg.VetxOutput, res.Facts)
	writeStats(&cfg, res, hits, misses)
	emitDiagnostics(res, jsonMode)
	if len(res.Kept) == 0 {
		return 0
	}
	return 2
}

// factsWorthBuilding reports whether a VetxOnly unit deserves a real fact
// pass. Module packages (ModulePath set) do; standard-library units
// (no module identity) only re-export what they imported.
func factsWorthBuilding(cfg *vetConfig) bool {
	return cfg.ModulePath != "" && !cfg.Standard[cfg.ImportPath]
}

// readImportedFacts decodes every dependency vetx file the go command
// handed over, merging them into one table. hits counts files decoded,
// misses counts files that were absent, unreadable, or stale (wrong
// magic/version) — those dependencies degrade to fact-free.
func readImportedFacts(vetx map[string]string) (facts *Facts, hits, misses int) {
	facts = NewFacts()
	for _, path := range vetx {
		data, err := os.ReadFile(path)
		if err != nil {
			misses++
			continue
		}
		fs, err := DecodeFacts(data)
		if err != nil {
			misses++
			continue
		}
		facts.Merge(fs)
		hits++
	}
	return facts, hits, misses
}

// writeVetx serializes the fact table for downstream packages. Failure to
// write is not fatal to the analysis — importers will degrade to
// package-local reasoning for this dependency.
func writeVetx(path string, facts *Facts) {
	if path == "" {
		return
	}
	if facts == nil {
		facts = NewFacts()
	}
	_ = os.WriteFile(path, facts.Encode(), 0o666)
}

// emitDiagnostics prints the run's findings: JSON lines on stdout in json
// mode (suppressed findings included, carrying their reasons), the
// classic file:line: [analyzer] format on stderr otherwise, plus GitHub
// workflow annotations when running under Actions.
func emitDiagnostics(res *UnitResult, jsonMode bool) {
	if jsonMode {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range res.Kept {
			_ = enc.Encode(jsonDiag(d))
		}
		for _, d := range res.Suppressed {
			_ = enc.Encode(jsonDiag(d))
		}
	} else {
		for _, d := range res.Kept {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", d.Position, d.Analyzer, d.Message)
		}
	}
	if os.Getenv("GITHUB_ACTIONS") == "true" {
		for _, d := range res.Kept {
			// ::error renders the finding on the offending line in the PR
			// diff instead of burying it in a raw exit-2 log.
			fmt.Printf("::error file=%s,line=%d,title=ermi-vet %s::%s\n",
				d.Position.Filename, d.Position.Line, d.Analyzer, annotationEscape(d.Message))
		}
	}
}

// jsonDiagnostic is the machine-readable diagnostic shape, one JSON
// object per line.
type jsonDiagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

func jsonDiag(d Diagnostic) jsonDiagnostic {
	return jsonDiagnostic{
		File:       d.Position.Filename,
		Line:       d.Position.Line,
		Col:        d.Position.Column,
		Analyzer:   d.Analyzer,
		Message:    d.Message,
		Suppressed: d.Suppressed,
		Reason:     d.Reason,
	}
}

// annotationEscape applies the workflow-command encoding for message data.
func annotationEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// writeStats appends one machine-parseable line per analyzed unit to the
// file named by ERMIVET_STATS: fact-cache hit/miss counts and, for full
// runs, per-analyzer wall time. `make lint` aggregates these into the
// per-analyzer timing summary; CI asserts the file stays empty on a warm
// re-run (cached packages never invoke the tool at all, so no lines means
// no redundant re-analysis). The append is a single short write on an
// O_APPEND descriptor, so concurrent vet processes interleave whole
// lines.
func writeStats(cfg *vetConfig, res *UnitResult, hits, misses int) {
	path := os.Getenv("ERMIVET_STATS")
	if path == "" {
		return
	}
	var b strings.Builder
	kind := "unit"
	if cfg.VetxOnly {
		kind = "facts-only"
	}
	fmt.Fprintf(&b, "%s pkg=%s facts_hit=%d facts_miss=%d", kind, cfg.ImportPath, hits, misses)
	if res != nil {
		fmt.Fprintf(&b, " findings=%d suppressed=%d", len(res.Kept), len(res.Suppressed))
		for _, t := range res.Timing {
			fmt.Fprintf(&b, " ns_%s=%d", t.Name, t.D.Nanoseconds())
		}
	}
	b.WriteByte('\n')
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return
	}
	defer f.Close()
	_, _ = f.WriteString(b.String())
}

// loadUnit parses and type-checks the package described by cfg.
func loadUnit(cfg *vetConfig) (*Package, error) {
	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(cfg.GoFiles))
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	tc := &types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor(cfg.Compiler, goarch()),
		Error:     func(error) {}, // collect just the first, via the return below
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tpkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// goarch is the architecture the package is being vetted for: the go
// command exports GOARCH to the tool's environment during the build.
func goarch() string {
	if a := os.Getenv("GOARCH"); a != "" {
		return a
	}
	return runtime.GOARCH
}
