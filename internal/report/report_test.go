package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := &table{
		title:  "title",
		header: []string{"name", "v"},
		rows:   [][]string{{"a", "1.00"}, {"longer-name", "2"}},
	}
	got := tb.String()
	want := "title\n" +
		"name         v\n" +
		"-------------------\n" +
		"a            1.00\n" +
		"longer-name  2\n"
	if got != want {
		t.Fatalf("table misaligned:\n--- got ---\n%q\n--- want ---\n%q", got, want)
	}
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	// Every non-separator line must start its second column at the same
	// offset: max(label width) + 2.
	for _, ln := range lines[1:] {
		if strings.HasPrefix(ln, "-") {
			continue
		}
		if len(ln) < 13 || ln[11:13] != "  " {
			t.Fatalf("column 2 not aligned at offset 13 in %q", ln)
		}
	}
}

func TestTableEmpty(t *testing.T) {
	tb := &table{header: []string{"a", "bb"}}
	got := tb.String()
	// Header and separator only; no title line, no data rows.
	want := "a  bb\n-------\n"
	if got != want {
		t.Fatalf("empty table: got %q want %q", got, want)
	}
}

func TestTableOversizedRowDropsExtraCells(t *testing.T) {
	tb := &table{header: []string{"k", "v"}}
	tb.add("x", "y", "extra")
	got := tb.String() // must not panic
	if strings.Contains(got, "extra") {
		t.Fatalf("cells beyond the header must be dropped: %q", got)
	}
}

func TestRowHandleSurvivesLaterRows(t *testing.T) {
	rep := New("x")
	first := rep.Row("first")
	for i := 0; i < 10; i++ {
		rep.Row(fmt.Sprintf("r%d", i))
	}
	first.Val("late", "", 1)
	if n := len(rep.Rows[0].Values); n != 1 {
		t.Fatalf("value added through a held row handle was lost (%d values)", n)
	}
}

func TestTableSingleRow(t *testing.T) {
	tb := &table{header: []string{"k", "v"}}
	tb.add("x", "y")
	got := tb.String()
	want := "k  v\n------\nx  y\n"
	if got != want {
		t.Fatalf("single-row table: got %q want %q", got, want)
	}
}

// sampleCampaign exercises every schema feature: dims, units, series with
// and without x, non-finite and precision-heavy floats.
func sampleCampaign() *Campaign {
	rep := New("fig-test")
	rep.Scale = "tiny"
	rep.Seed = 42
	rep.Row("zebra").Dim("winner", "scale-up").
		Val("p99", "ms", 124.8).
		Val("tiny", "", 1e-9).
		Val("big", "", 1.5e21).
		Val("nan", "", math.NaN()).
		Val("inf", "", math.Inf(1)).
		Val("neg-inf", "", math.Inf(-1)).
		Val("third", "", 1.0/3.0)
	rep.Row("alpha").Val("n", "count", 3)
	rep.AddSeries("curve", "ms", []float64{1, 2, 3}, []float64{0.1, 0.2, 0.30000000000000004})
	rep.AddSeries("bare", "", nil, []float64{5})
	return &Campaign{Tool: "firmbench", Scale: "tiny", Seed: 42, Reports: []*Report{rep}}
}

func TestCanonicalJSONRoundTrip(t *testing.T) {
	// Canonicalization contract: decoding a canonical file with plain
	// encoding/json and re-encoding it reproduces the bytes exactly.
	first, err := Marshal(sampleCampaign())
	if err != nil {
		t.Fatal(err)
	}
	var c Campaign
	if err := json.Unmarshal(first, &c); err != nil {
		t.Fatal(err)
	}
	second, err := Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("decode → re-encode not byte-stable:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// FuzzCanonicalRoundTrip: whatever Decode accepts, its canonical encoding
// is a fixpoint — Marshal → Decode → Marshal reproduces the bytes, NaN and
// ±Inf included — and it renders as text, to the same text after the round
// trip. The corpus is seeded with the experiment goldens' JSON and the
// sample campaign.
func FuzzCanonicalRoundTrip(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("..", "experiments", "testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(goldens) == 0 {
		f.Fatal("no golden JSON to seed the corpus")
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	sample, err := Marshal(sampleCampaign())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		first, err := Marshal(c)
		if err != nil {
			t.Fatalf("Marshal of a decoded campaign: %v", err)
		}
		back, err := Decode(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("Decode rejects canonical output: %v\n%s", err, first)
		}
		second, err := Marshal(back)
		if err != nil {
			t.Fatalf("Marshal after round trip: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("Marshal → Decode → Marshal is not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", first, second)
		}
		if a, b := campaignText(c), campaignText(back); a != b {
			t.Fatalf("the round trip changed the text:\n--- decoded ---\n%s\n--- re-encoded ---\n%s", a, b)
		}
	})
}

// TestDecodeRejectsNullEntries: a null report or row decodes to a nil
// pointer that Diff and Text would dereference; Decode refuses the file.
func TestDecodeRejectsNullEntries(t *testing.T) {
	for _, doc := range []string{
		`{"tool":"t","reports":[null]}`,
		`{"tool":"t","reports":[{"id":"a","rows":[{"label":"x"},null]}]}`,
	} {
		if c, err := Decode(strings.NewReader(doc)); err == nil {
			t.Errorf("Decode(%s) = %+v, want an error", doc, c)
		}
	}
}

func TestCanonicalJSONStable(t *testing.T) {
	// Two structurally identical campaigns built independently must encode
	// to the same bytes.
	a, err := Marshal(sampleCampaign())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(sampleCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("independent builds of the same campaign encode differently")
	}
	if a[len(a)-1] != '\n' {
		t.Fatal("canonical encoding must end with a newline")
	}
}

func TestCanonicalJSONKeyOrder(t *testing.T) {
	out, err := Marshal(sampleCampaign())
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	// Struct fields appear in schema order regardless of build order.
	for _, pair := range [][2]string{
		{`"tool"`, `"scale"`},
		{`"scale"`, `"seed"`},
		{`"seed"`, `"reports"`},
		{`"id"`, `"rows"`},
		{`"rows"`, `"series"`},
		{`"metric"`, `"value"`},
		{`"label"`, `"values"`},
	} {
		if strings.Index(s, pair[0]) < 0 || strings.Index(s, pair[0]) > strings.Index(s, pair[1]) {
			t.Fatalf("key %s must precede %s in canonical output:\n%s", pair[0], pair[1], s)
		}
	}
	// Rows keep build order (they are result rows, not a map).
	if strings.Index(s, `"zebra"`) > strings.Index(s, `"alpha"`) {
		t.Fatal("row order must be build order, not sorted")
	}
}

func TestFloatFormatting(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{124.8, "124.8"},
		{0, "0"},
		{1e-9, "1e-09"},
		{1.5e21, "1.5e+21"},
		{1.0 / 3.0, "0.3333333333333333"},
		{math.NaN(), `"NaN"`},
		{math.Inf(1), `"+Inf"`},
		{math.Inf(-1), `"-Inf"`},
	}
	for _, c := range cases {
		b, err := Float(c.in).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.want {
			t.Errorf("Float(%v) encoded as %s, want %s", c.in, b, c.want)
		}
		var back Float
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatalf("round-trip parse of %s: %v", b, err)
		}
		if float64(back) != c.in && !(math.IsNaN(c.in) && math.IsNaN(float64(back))) {
			t.Errorf("Float(%v) round-tripped to %v", c.in, float64(back))
		}
	}
}

func TestFloatUnmarshalRejectsJunk(t *testing.T) {
	var f Float
	for _, s := range []string{`"Infinity"`, `"nan"`, `true`, `"12"`} {
		if err := f.UnmarshalJSON([]byte(s)); err == nil {
			t.Errorf("UnmarshalJSON(%s) accepted", s)
		}
	}
}

func TestCampaignMergeKeepsDeclarationOrder(t *testing.T) {
	c := &Campaign{Tool: "firmbench", Scale: "tiny", Seed: 42}
	for _, id := range []string{"fig3", "fig5", "table1"} {
		c.Merge(New(id))
	}
	if c.Reports[0].ID != "fig3" || c.Reports[1].ID != "fig5" || c.Reports[2].ID != "table1" {
		t.Fatal("merge must preserve declaration order")
	}
}
