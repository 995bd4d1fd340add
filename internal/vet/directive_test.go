package vet

import (
	"go/ast"
	"go/token"
	"strings"
	"testing"
)

// FuzzAllowDirective feeds arbitrary comment text through
// collectDirectives. Whatever the text, the scan must not panic. Text that
// is not a firmvet directive is ignored. A well-formed allow directive —
// //firmvet:allow <known analyzer> -- <non-blank reason> — indexes exactly
// one waiver, on the comment's own line, and reports nothing; any other
// //firmvet: text waives nothing and reports exactly one firmvet finding.
func FuzzAllowDirective(f *testing.F) {
	for _, text := range []string{
		"//firmvet:allow nondeterm -- wall clock for progress only",
		"  //firmvet:allow\tseedflow  --  seed is derived upstream  ",
		"//firmvet:allow noalloc -- a -- b",
		"//firmvet:allow maporder --",
		"//firmvet:allow maporder -- \t",
		"//firmvet:allow maporder --reason",
		"//firmvet:allow unknown -- reason",
		"//firmvet:allow nondeterm maporder -- reason",
		"//firmvet:allownondeterm -- reason",
		"//firmvet:allow",
		"//firmvet:noalloc",
		"//firmvet:noalloc extra",
		"//firmvet:other",
		"// an ordinary comment",
		"/* //firmvet:allow nondeterm -- block */",
		"",
	} {
		f.Add(text)
	}
	const prefix = "package p\n\n" // the comment starts line 3
	f.Fuzz(func(t *testing.T, text string) {
		fset := token.NewFileSet()
		tf := fset.AddFile("p.go", -1, len(prefix)+len(text))
		tf.SetLinesForContent([]byte(prefix + text))
		c := &ast.Comment{Slash: tf.Pos(len(prefix)), Text: text}
		file := &ast.File{Name: ast.NewIdent("p"), Comments: []*ast.CommentGroup{{List: []*ast.Comment{c}}}}
		var diags []Diagnostic
		d := collectDirectives(fset, []*ast.File{file}, &diags)

		if name := wellFormedAllow(text); name != "" {
			if len(diags) != 0 {
				t.Fatalf("%q: well-formed waiver reported %v", text, diags)
			}
			lines := d.allow["p.go"]
			if len(lines) != 1 || len(lines[3]) != 1 || !lines[3][name] {
				t.Fatalf("%q: waivers %v, want {3: {%s}}", text, d.allow, name)
			}
			if !d.allowed("p.go", 3, name) || !d.allowed("p.go", 4, name) || d.allowed("p.go", 5, name) {
				t.Fatalf("%q: waiver must cover lines 3 and 4 only", text)
			}
			return
		}
		if len(d.allow) != 0 {
			t.Fatalf("%q: not a well-formed allow directive, but indexed %v", text, d.allow)
		}
		if !strings.HasPrefix(strings.TrimSpace(text), "//firmvet:") {
			if len(diags) != 0 {
				t.Fatalf("%q: not a directive, but reported %v", text, diags)
			}
			return
		}
		if len(diags) != 1 || diags[0].Analyzer != "firmvet" || diags[0].Line != 3 {
			t.Fatalf("%q: want exactly one firmvet finding on line 3, got %v", text, diags)
		}
	})
}

// wellFormedAllow returns the analyzer a well-formed allow directive
// waives, or "" when text is not one: after the prefix, whitespace, then
// exactly one known analyzer name up to the first " -- ", then a reason
// that is not blank.
func wellFormedAllow(text string) string {
	rest, ok := strings.CutPrefix(strings.TrimSpace(text), allowPrefix)
	if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
		return ""
	}
	spec, reason, ok := strings.Cut(rest, " -- ")
	names := strings.Fields(spec)
	if !ok || len(names) != 1 || !analyzerNames()[names[0]] || len(strings.Fields(reason)) == 0 {
		return ""
	}
	return names[0]
}
