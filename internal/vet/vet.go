// Package vet implements firmvet, the repo's determinism and
// alloc-discipline static-analysis suite.
//
// Every invariant the reproduction lives by — byte-identical output at any
// -parallel × -shards configuration, 0 allocs/op on the
// steady-state tick and shard-step paths — is otherwise enforced only after
// the fact, by golden tests and bench gates. firmvet checks the contract at
// the source level, before nondeterminism or allocation churn can ship:
//
//   - nondeterm: forbids wall-clock reads (time.Now/Since/Sleep/...), the
//     global math/rand source, os.Getpid, and runtime.NumCPU/GOMAXPROCS
//     inside the deterministic packages (internal/sim, app, harness, nn,
//     rl, rollout, experiments).
//   - maporder: flags `for range` over a map whose body performs an
//     order-sensitive operation — appending to a slice, writing to an
//     io.Writer, accumulating floats, sending on a channel, or calling a
//     fmt print function — unless the collected keys are sorted afterwards
//     in the same function.
//   - noalloc: functions annotated //firmvet:noalloc are checked for
//     syntactic allocation sites: make/new outside cap-guarded warm-up
//     growth, appends to unpreallocated locals, escaping composite
//     literals, string concatenation, closure creation, and interface
//     conversions of non-pointer-shaped values.
//   - seedflow: every RNG construction (rand.NewSource, sim.Stream) in the
//     deterministic packages must trace its seed to sim.DeriveSeed — via a
//     direct call, a *Seed-named helper, a seed parameter, or a
//     seed-carrying struct field — never a constant or seed arithmetic.
//
// Findings can be waived per line with
//
//	//firmvet:allow <analyzer> -- <reason>
//
// on the flagged line or the line above; the reason is mandatory. The go
// tool lists the packages and their files (one `go list -deps` call decides
// what the patterns match, which files build for GOOS/GOARCH and the
// type-check order); beyond that the suite uses only the standard library
// (go/parser, go/ast, go/types with the source importer) — no x/tools
// dependency.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, rendered as "file:line:col: [analyzer] message".
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Config selects where the determinism analyzers apply.
type Config struct {
	// DeterministicPaths are import-path prefixes inside which nondeterm
	// and seedflow findings are reported. Packages outside the prefixes
	// (CLI front-ends, the distributed transport, tooling) may legitimately
	// read wall clocks and machine state.
	DeterministicPaths []string
}

// DefaultConfig covers the packages whose output feeds golden tests: the
// simulation substrate and everything between it and the experiment tables.
func DefaultConfig() Config {
	return Config{DeterministicPaths: []string{
		"firm/internal/sim",
		"firm/internal/app",
		"firm/internal/harness",
		"firm/internal/nn",
		"firm/internal/rl",
		"firm/internal/rollout",
		"firm/internal/scenario",
		"firm/internal/experiments",
	}}
}

// Analyzer is one named check run over every target package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{nondetermAnalyzer, maporderAnalyzer, noallocAnalyzer, seedflowAnalyzer}
}

// analyzerNames is the set of names valid in //firmvet:allow directives.
func analyzerNames() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Analyzers() {
		m[a.Name] = true
	}
	return m
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Fset   *token.FileSet
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	Path   string // import path
	Config Config

	dirs  *directives
	diags *[]Diagnostic
}

// deterministic reports whether the package is inside the configured
// deterministic-path prefixes.
func (p *Pass) deterministic() bool {
	for _, prefix := range p.Config.DeterministicPaths {
		if p.Path == prefix || strings.HasPrefix(p.Path, prefix+"/") {
			return true
		}
	}
	return false
}

// innermostFunc indexes file's functions (declarations and literals) and
// returns a lookup of the innermost one enclosing pos, or nil.
func innermostFunc(file *ast.File) func(pos token.Pos) ast.Node {
	var funcs []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			funcs = append(funcs, n)
		}
		return true
	})
	return func(pos token.Pos) ast.Node {
		var best ast.Node
		for _, fn := range funcs {
			if fn.Pos() <= pos && pos <= fn.End() && (best == nil || fn.Pos() > best.Pos()) {
				best = fn
			}
		}
		return best
	}
}

// Reportf records a finding unless an allow directive waives it.
func (p *Pass) Reportf(pos token.Pos, analyzer, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.dirs.allowed(position.Filename, position.Line, analyzer) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Check loads the packages matched by patterns (each a directory or a
// `dir/...` wildcard, as for the go tool) and runs the full analyzer suite,
// returning diagnostics sorted by position. A load or type error is an
// error, not a diagnostic: the tree must compile before it can be vetted.
func Check(patterns []string, cfg Config) ([]Diagnostic, error) {
	fset, pkgs, err := load(patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if !pkg.Target {
			continue
		}
		dirs := collectDirectives(fset, pkg.Files, &diags)
		pass := &Pass{
			Fset: fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info,
			Path: pkg.Path, Config: cfg, dirs: dirs, diags: &diags,
		}
		for _, a := range Analyzers() {
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}
