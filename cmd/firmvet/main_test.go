package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"firm/internal/vet"
)

// corpusDir points at one corpus package of internal/vet's testdata from
// this package's working directory.
func corpusDir(name string) string {
	return filepath.Join("..", "..", "internal", "vet", "testdata", "src", name)
}

// TestRunRejectsBadInvocations mirrors firmbench's flag-validation tests:
// every malformed command line exits 2 and explains itself on stderr, never
// silently running a different analysis than the one asked for.
func TestRunRejectsBadInvocations(t *testing.T) {
	bad := []struct {
		name string
		args []string
	}{
		{"unknown-flag", []string{"-nope"}},
		{"flag-after-pattern", []string{corpusDir("maporder"), "-json"}},
		{"missing-dir", []string{"no/such/dir"}},
		{"file-not-dir", []string{"main.go"}},
		{"bad-wildcard-base", []string{"no/such/dir/..."}},
		{"no-go-files", []string{corpusDir("../golden")}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("run(%v) = %d, want 2; stderr:\n%s", tc.args, code, stderr.String())
			}
			if stderr.Len() == 0 {
				t.Errorf("run(%v): exit 2 with empty stderr; usage or cause must be explained", tc.args)
			}
		})
	}
}

// TestRunExitCodes pins the 0/1 side of the firmbench exit-code contract:
// findings exit 1 with one diagnostic per stdout line, a clean tree exits 0
// silently. The nondeterm corpus is clean under the default configuration
// because its package path is outside the deterministic-path prefixes —
// which is itself the path-gating behaviour worth pinning.
func TestRunExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{corpusDir("maporder")}, &stdout, &stderr); code != 1 {
		t.Fatalf("run(maporder corpus) = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "[maporder]") {
		t.Errorf("findings output missing [maporder] diagnostics:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{corpusDir("nondeterm")}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(nondeterm corpus, default config) = %d, want 0; stdout:\n%sstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run must print nothing on stdout, got:\n%s", stdout.String())
	}
}

// TestRunJSON checks the -json contract: a clean run emits an empty JSON
// array (not null), a dirty run emits an array that decodes back into the
// same diagnostics the text mode prints.
func TestRunJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", corpusDir("nondeterm")}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-json, clean) = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	var clean []vet.Diagnostic
	if err := json.Unmarshal(stdout.Bytes(), &clean); err != nil {
		t.Fatalf("clean -json output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if clean == nil || len(clean) != 0 {
		t.Errorf("clean -json output = %v, want the empty array []", clean)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-json", corpusDir("noalloc")}, &stdout, &stderr); code != 1 {
		t.Fatalf("run(-json, noalloc corpus) = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	var dirty []vet.Diagnostic
	if err := json.Unmarshal(stdout.Bytes(), &dirty); err != nil {
		t.Fatalf("dirty -json output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(dirty) == 0 {
		t.Fatal("dirty -json output decoded to zero diagnostics")
	}
	for _, d := range dirty {
		if d.Analyzer != "noalloc" {
			t.Errorf("unexpected analyzer %q in noalloc corpus diagnostics", d.Analyzer)
		}
		if d.File == "" || d.Line == 0 || d.Message == "" {
			t.Errorf("diagnostic missing position or message: %+v", d)
		}
	}
}
