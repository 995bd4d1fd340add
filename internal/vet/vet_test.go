package vet

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// corpusConfig marks the corpus tree deterministic so nondeterm and
// seedflow apply to it, exactly as DefaultConfig marks the real simulation
// packages.
func corpusConfig() Config {
	return Config{DeterministicPaths: []string{"firm/internal/vet/testdata/src"}}
}

// corpusPackages lists the corpus directories, one per analyzer plus the
// directive-validation package.
var corpusPackages = []string{"directives", "maporder", "noalloc", "nondeterm", "seedflow"}

// TestCorpusGolden runs the full suite over the corpus in one load and
// compares each package's diagnostics against its golden file. Regenerate
// after an intentional analyzer change with
//
//	FIRMVET_UPDATE_GOLDEN=1 go test ./internal/vet -run TestCorpusGolden
//
// and review the diff: every golden line is a deliberate true positive.
func TestCorpusGolden(t *testing.T) {
	dirs := make([]string, len(corpusPackages))
	for i, name := range corpusPackages {
		dirs[i] = filepath.Join("testdata", "src", name)
	}
	diags, err := Check(dirs, corpusConfig())
	if err != nil {
		t.Fatalf("Check(corpus): %v", err)
	}

	byPkg := make(map[string][]string)
	for _, d := range diags {
		rel := filepath.ToSlash(d.File)
		parts := strings.Split(rel, "/")
		if len(parts) < 4 || parts[0] != "testdata" || parts[1] != "src" {
			t.Fatalf("diagnostic outside the corpus: %s", d)
		}
		byPkg[parts[2]] = append(byPkg[parts[2]], filepath.ToSlash(d.String()))
	}

	for _, name := range corpusPackages {
		t.Run(name, func(t *testing.T) {
			got := strings.Join(byPkg[name], "\n")
			if got != "" {
				got += "\n"
			}
			goldenPath := filepath.Join("testdata", "golden", name+".golden")
			if os.Getenv("FIRMVET_UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with FIRMVET_UPDATE_GOLDEN=1 to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics for %s diverge from %s\n--- got ---\n%s--- want ---\n%s",
					name, goldenPath, got, want)
			}
		})
	}

	// Each analyzer must catch its corpus true positives: at least three
	// findings under its own package (the good files contribute zero), and
	// the directive validator must fire in the directives package.
	for _, name := range []string{"maporder", "noalloc", "nondeterm", "seedflow"} {
		n := 0
		for _, line := range byPkg[name] {
			if strings.Contains(line, "["+name+"]") {
				n++
			}
		}
		if n < 3 {
			t.Errorf("%s: %d findings in its corpus package, want >= 3", name, n)
		}
	}
	nDirective := 0
	for _, line := range byPkg["directives"] {
		if strings.Contains(line, "[firmvet]") {
			nDirective++
		}
	}
	if nDirective < 3 {
		t.Errorf("directives: %d [firmvet] validation findings, want >= 3", nDirective)
	}
}

// TestCorpusWaiversHeld pins the waiver semantics: a valid allow directive
// suppresses its finding (no diagnostics on the waived lines), while the
// missing-reason directive in the directives package waives nothing — the
// time.Now read below it must still be reported.
func TestCorpusWaiversHeld(t *testing.T) {
	diags, err := Check([]string{filepath.Join("testdata", "src", "directives")}, corpusConfig())
	if err != nil {
		t.Fatalf("Check(directives): %v", err)
	}
	foundNondeterm := false
	for _, d := range diags {
		if d.Analyzer == "nondeterm" && strings.Contains(d.Message, "time.Now") {
			foundNondeterm = true
		}
	}
	if !foundNondeterm {
		t.Errorf("a reason-less allow directive must not waive the time.Now finding; diagnostics:\n%s", joinDiags(diags))
	}
}

// TestPatternForms checks that a corpus directory gives identical
// diagnostics whether it is named bare, with a ./ prefix or by absolute
// path: go list reads a bare relative directory as an import path, so the
// loader prefixes it, and findings print relative to the working directory
// either way.
func TestPatternForms(t *testing.T) {
	bare := filepath.Join("testdata", "src", "maporder")
	abs, err := filepath.Abs(bare)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Check([]string{bare}, corpusConfig())
	if err != nil {
		t.Fatalf("Check(%s): %v", bare, err)
	}
	if len(want) == 0 {
		t.Fatalf("Check(%s): no diagnostics; the comparison needs some", bare)
	}
	for _, pat := range []string{"." + string(filepath.Separator) + bare, abs} {
		got, err := Check([]string{pat}, corpusConfig())
		if err != nil {
			t.Fatalf("Check(%s): %v", pat, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Check(%s) diverges from Check(%s)\n--- got ---\n%s--- want ---\n%s",
				pat, bare, joinDiags(got), joinDiags(want))
		}
	}
}

// TestTestOnlyDirectory pins how a directory holding only test files is
// treated (go list reports no error for one): named by a pattern it fails
// to load, matched by a wildcard it is skipped. The module is a scratch one,
// since the corpus must not gain such a directory.
func TestTestOnlyDirectory(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":              "module scratch\n\ngo 1.24\n",
		"a/a.go":              "package a\n",
		"tonly/tonly_test.go": "package tonly\n",
	} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	if _, err := Check([]string{"a", "tonly"}, corpusConfig()); err == nil {
		t.Error("Check(a, tonly) succeeded; a named directory without buildable files must fail")
	}
	if diags, err := Check([]string{"./..."}, corpusConfig()); err != nil || len(diags) != 0 {
		t.Errorf("Check(./...) = %v, %v; want the test-only directory skipped and no findings", diags, err)
	}
}

func joinDiags(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
