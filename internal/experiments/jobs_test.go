package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestWireCodecRoundTripsNonFinite pins the fine-grained job wire format:
// results must survive the trip bit-exactly even when statistics come out
// NaN or ±Inf (plain encoding/json would reject them, making a job fail
// remotely that succeeds locally), and the encoded form must still be
// valid JSON so it can ride the HTTP+JSON envelope.
func TestWireCodecRoundTripsNonFinite(t *testing.T) {
	in := fig9aKind{
		AUC:   math.NaN(),
		Curve: [][2]float64{{math.Inf(1), math.Inf(-1)}, {0.1, 0.9}},
		TPR15: 0.5,
	}
	raw, err := wireEncode(in)
	if err != nil {
		t.Fatalf("wireEncode with non-finite floats: %v", err)
	}
	var asString string
	if err := json.Unmarshal(raw, &asString); err != nil {
		t.Fatalf("wire payload is not a JSON string: %v", err)
	}
	var out fig9aKind
	if err := wireDecode(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(out.AUC) || !math.IsInf(out.Curve[0][0], 1) || !math.IsInf(out.Curve[0][1], -1) {
		t.Fatalf("non-finite values corrupted: %+v", out)
	}
	if out.Curve[1] != in.Curve[1] || out.TPR15 != in.TPR15 {
		t.Fatalf("finite values corrupted: %+v", out)
	}

	// The other wire shapes: maps, bare slices, bare floats.
	row := table1Row{Row: map[string]float64{"N": 1.25, "V": math.NaN()}, Total: 3.5, Sig: "N->C"}
	raw, err = wireEncode(row)
	if err != nil {
		t.Fatal(err)
	}
	var rowOut table1Row
	if err := wireDecode(raw, &rowOut); err != nil {
		t.Fatal(err)
	}
	if rowOut.Row["N"] != 1.25 || !math.IsNaN(rowOut.Row["V"]) || rowOut.Total != 3.5 || rowOut.Sig != "N->C" {
		t.Fatalf("table1Row corrupted: %+v", rowOut)
	}
	raw, err = wireEncode([]float64{1, math.NaN(), 3})
	if err != nil {
		t.Fatal(err)
	}
	var lats []float64
	if err := wireDecode(raw, &lats); err != nil {
		t.Fatal(err)
	}
	if len(lats) != 3 || lats[0] != 1 || !math.IsNaN(lats[1]) || lats[2] != 3 {
		t.Fatalf("[]float64 corrupted: %v", lats)
	}
	raw, err = wireEncode(float64(0.3))
	if err != nil {
		t.Fatal(err)
	}
	var f float64
	if err := wireDecode(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f != 0.3 {
		t.Fatalf("float64 corrupted: %v", f)
	}
}

func TestHasJobSet(t *testing.T) {
	for _, id := range []string{"table1", "fig3", "fig4", "fig5", "fig9a", "fig9b"} {
		if !HasJobSet(id) {
			t.Errorf("HasJobSet(%q) = false", id)
		}
	}
	for _, id := range []string{"fig1", "fig10", "fig11a", "fig11b", "experiment", "nope"} {
		if HasJobSet(id) {
			t.Errorf("HasJobSet(%q) = true", id)
		}
	}
}

// TestJobSetTable pins the one job-set table: every fine-grained set plus
// the whole-experiment set, listed sorted; an unknown set is an error
// (mismatched binaries), not a panic. Duplicate names cannot be tested —
// the table is a map literal, so they do not compile.
func TestJobSetTable(t *testing.T) {
	want := "[experiment faultsweep fig3 fig4 fig5 fig9a fig9b gensweep table1]"
	if got := fmt.Sprint(JobSets()); got != want {
		t.Fatalf("JobSets() = %s, want %s", got, want)
	}
	if _, err := (Exec{}).RunJob("no-such-set", "tiny", 42, "k"); err == nil || !strings.Contains(err.Error(), "unknown job set") {
		t.Fatalf("unknown set: err = %v", err)
	}
	if _, err := (Exec{}).RunJob("table1", "tiny", 42, "no-such-key"); err == nil || !strings.Contains(err.Error(), "has no job") {
		t.Fatalf("unknown key: err = %v", err)
	}
	if _, err := (Exec{}).RunJob("table1", "no-such-scale", 42, "k"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}
