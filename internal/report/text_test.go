package report

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// textReport covers what Text must lay out: consecutive rows with the same
// columns (one table), a row with other columns (a second table), dims a
// row lacks, NaN and ±Inf, two series on one x vector, one on another, one
// without x, and one longer than the row cap.
func textReport() *Report {
	rep := New("text-test")
	rep.Row("alpha").Dim("winner", "up").Val("p50", "ms", 12.5).Val("n", "", 3)
	rep.Row("beta").Dim("cp", "a→b").Val("p50", "ms", math.NaN()).Val("n", "", 1e20)
	rep.Row("gamma").Val("p50", "ms", math.Inf(1)).Val("n", "", -0.000123456789)
	rep.Row("ratio").Val("gain", "x", math.Inf(-1)).Val("paper-gain", "x", 16.7)
	x := []float64{1, 2, 3}
	rep.AddSeries("p99-no-firm", "ms", x, []float64{40, 2035.4812, 41})
	rep.AddSeries("p99-firm", "ms", x, []float64{39, 120, 1.0 / 3})
	rep.AddSeries("roc", "", []float64{0, 0.5, 1}, []float64{0, 0.9, 1})
	rep.AddSeries("bare", "", nil, []float64{5, 6})
	long := make([]float64, 30)
	for i := range long {
		long[i] = float64(i * i)
	}
	rep.AddSeries("long", "s", long, long)
	return rep
}

func TestTextPinned(t *testing.T) {
	want := `label  cp   winner  p50 (ms)  n
--------------------------------------------
alpha  -    up      12.5      3
beta   a→b  -       NaN       1e+20
gamma  -    -       +Inf      -0.000123457

label  gain (x)  paper-gain (x)
---------------------------------
ratio  -Inf      16.7

x  p99-no-firm (ms)  p99-firm (ms)
------------------------------------
1  40                39
2  2035.48           120
3  41                0.333333

x    roc
----------
0    0
0.5  0.9
1    1

i  bare
---------
0  5
1  6

12 of 30 points
x    long (s)
---------------
0    0
4    4
25   25
49   49
100  100
169  169
225  225
324  324
441  441
529  529
676  676
841  841
`
	if got := textReport().Text(); got != want {
		t.Fatalf("Text changed:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestTextRendersGoldens renders every committed experiment record.
func TestTextRendersGoldens(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "experiments", "testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no experiment records to render")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if text := campaignText(c); !strings.Contains(text, "---") {
			t.Errorf("%s renders no table:\n%s", path, text)
		}
	}
}

// campaignText renders every report of a campaign.
func campaignText(c *Campaign) string {
	var sb strings.Builder
	for _, rep := range c.Reports {
		sb.WriteString(rep.Text())
	}
	return sb.String()
}
