package vet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// pkg is one parsed, type-checked package of the module.
type pkg struct {
	Path   string // import path
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
	Target bool // matched a pattern (dependencies are loaded but not analyzed)
}

// listed is the part of one `go list -json` record the loader reads.
type listed struct {
	ImportPath, Dir   string
	GoFiles, Match    []string
	DepOnly, Standard bool
	Error             *struct{ Err string }
}

// load lets one `go list -deps` call decide the packages, their files for
// this GOOS/GOARCH and the order (each package after its dependencies) in
// which it parses and type-checks them. The standard library is checked from
// GOROOT source (go/importer's "source" compiler): no export data, no x/tools.
func load(patterns []string) (*token.FileSet, []*pkg, error) {
	dec, err := goList(patterns)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	imp := &moduleImporter{std: std, pkgs: make(map[string]*pkg)}
	conf := types.Config{Importer: imp}
	var pkgs []*pkg
	for dec.More() {
		var l listed
		if err := dec.Decode(&l); err != nil {
			return nil, nil, fmt.Errorf("go list: %w", err)
		}
		if l.Standard {
			continue
		}
		if l.Error != nil {
			return nil, nil, fmt.Errorf("%s", l.Error.Err)
		}
		dir := displayDir(l)
		if len(l.GoFiles) == 0 {
			// A test-only directory lists error-free; only a named one must build.
			if slices.ContainsFunc(l.Match, func(m string) bool { return !strings.Contains(m, "...") }) {
				return nil, nil, fmt.Errorf("no buildable Go files in %s", dir)
			}
			continue
		}
		p := &pkg{Path: l.ImportPath, Target: !l.DepOnly, Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}}
		for _, name := range l.GoFiles {
			file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, nil, err
			}
			p.Files = append(p.Files, file)
		}
		if p.Types, err = conf.Check(p.Path, fset, p.Files, p.Info); err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %w", p.Path, err)
		}
		imp.pkgs[p.Path] = p
		pkgs = append(pkgs, p)
	}
	if len(pkgs) == 0 { // a target with no files has no dependencies either
		return nil, nil, fmt.Errorf("no packages match %v", patterns)
	}
	return fset, pkgs, nil
}

// goList runs `go list -e -deps` over the patterns, each a directory or
// `dir/...` (go list would wrap a file in a command-line-arguments package);
// a bare relative directory gets a `./` so it is not read as an import path.
func goList(patterns []string) (*json.Decoder, error) {
	args := []string{"list", "-e", "-deps", "-json=ImportPath,Dir,GoFiles,DepOnly,Standard,Error,Match", "--"}
	for _, pat := range patterns {
		info, err := os.Stat(strings.TrimSuffix(pat, "/..."))
		if err != nil || !info.IsDir() {
			return nil, fmt.Errorf("package pattern %q is not a directory (use dir or dir/...)", pat)
		}
		if !filepath.IsAbs(pat) && !build.IsLocalImport(pat) {
			pat = "./" + pat
		}
		args = append(args, pat)
	}
	var stderr strings.Builder
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, strings.TrimSpace(stderr.String()))
	}
	return json.NewDecoder(bytes.NewReader(out)), nil
}

// moduleImporter resolves module-internal imports to the packages this run
// already type-checked and everything else (the standard library) through
// the source importer. The go list order checks internal dependencies
// before their importers.
type moduleImporter struct {
	std  types.ImporterFrom
	pkgs map[string]*pkg
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p.Types, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}

// displayDir is where a package's files are parsed and printed from: a target
// under the pattern that matched it (so `../x/...` gives `../x/y`), then relDir.
func displayDir(l listed) string {
	dir := l.Dir
	if len(l.Match) > 0 {
		base := strings.TrimSuffix(l.Match[0], "/...")
		abs, _ := filepath.Abs(base) // l.Dir lies under it, so Rel cannot fail
		rel, _ := filepath.Rel(abs, l.Dir)
		dir = filepath.Join(base, rel)
	}
	return relDir(dir)
}

// relDir normalizes dir to a working-directory-relative path when it lies
// under the working directory, so diagnostics print the same way whether a
// package was reached through a pattern or as a dependency.
func relDir(dir string) string {
	cwd, err := os.Getwd()
	if err != nil {
		return dir
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	rel, err := filepath.Rel(cwd, abs)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return dir
	}
	return rel
}
