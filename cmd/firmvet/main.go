// Command firmvet runs the repo's determinism and alloc-discipline
// static-analysis suite (internal/vet) over the module.
//
// Usage:
//
//	firmvet [-json] [packages]
//
// Packages are directories or go-tool-style `dir/...` wildcards; the
// default is ./... from the working directory. The go tool lists the
// matched packages, their module-internal dependencies and the files each
// builds for the current GOOS/GOARCH (`go list -deps`); firmvet parses and
// type-checks them with the standard library's parser and type checker —
// no other tooling — and runs four analyzers:
//
//	nondeterm  wall-clock / global-RNG / machine-state reads in the
//	           deterministic packages
//	maporder   order-sensitive operations inside map iteration
//	noalloc    allocation sites in //firmvet:noalloc-annotated hot paths
//	seedflow   RNG constructions whose seed does not trace to
//	           sim.DeriveSeed
//
// Diagnostics print one per line as "file:line:col: [analyzer] message"
// (or, with -json, as a JSON array on stdout). Exit codes follow the
// firmbench conventions: 0 clean, 1 on findings, 2 on usage errors or when
// the tree fails to load or type-check.
//
// Findings are waived per line with `//firmvet:allow <analyzer> -- <reason>`
// (the reason is mandatory); hot paths opt into allocation checking with
// `//firmvet:noalloc` in their doc comment. See the README's "Static
// analysis" section.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"firm/internal/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses and validates the command line, executes the suite, and
// returns the process exit code. It is the unit under test in main_test.go.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("firmvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// The flag package stops at the first positional argument; a flag after
	// a package pattern is a mistake, not a package.
	for _, pat := range patterns {
		if strings.HasPrefix(pat, "-") {
			fmt.Fprintf(stderr, "firmvet: flag %q must come before package patterns\n", pat)
			usage(stderr)
			return 2
		}
	}

	diags, err := vet.Check(patterns, vet.DefaultConfig())
	if err != nil {
		fmt.Fprintf(stderr, "firmvet: %v\n", err)
		return 2
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []vet.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "firmvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: firmvet [-json] [packages]")
	fmt.Fprintln(w, "       packages are directories or dir/... wildcards (default ./...)")
	fmt.Fprintln(w, "       exit 0 clean, 1 findings, 2 usage or load error")
}
