package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"firm/internal/dist"
	"firm/internal/rl"
	"firm/internal/runner"
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

// TestEveryFanOutIsAJobSet: every job set is named after the experiment
// that owns its fan-out, and the only experiments without one are those
// with no fan-out of their own (fig9c, table6) and headline, which runs
// fig10's and fig11b's sets.
func TestEveryFanOutIsAJobSet(t *testing.T) {
	sets := map[string]bool{}
	for _, set := range JobSets() {
		sets[set] = true
		if _, ok := Get(set); !ok {
			t.Errorf("job set %q names no experiment", set)
		}
	}
	var without []string
	for _, id := range IDs() {
		if !sets[id] {
			without = append(without, id)
		}
	}
	if got := fmt.Sprint(without); got != "[fig9c headline table6]" {
		t.Fatalf("experiments without a job set: %s", got)
	}
}

// TestLargestInputFitsRequestBound: the largest input any set sends is
// fig11b's at full scale, one agent snapshot per checkpoint (400 / 40 =
// 10). Its /run request must stay under the worker's 1 MiB body bound.
func TestLargestInputFitsRequestBound(t *testing.T) {
	sc := FullScale()
	ag := rl.New(rl.DefaultConfig())
	var cp checkpoints
	for ep := sc.CheckpointEvery; ep <= sc.EpisodeCount; ep += sc.CheckpointEvery {
		snap, err := ag.Save()
		if err != nil {
			t.Fatal(err)
		}
		cp.Episodes = append(cp.Episodes, ep)
		cp.Snapshots = append(cp.Snapshots, snap)
	}
	if len(cp.Snapshots) != 10 {
		t.Fatalf("%d checkpoints at full scale, want 10", len(cp.Snapshots))
	}
	input, err := encodeInput(cp)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(dist.JobRequest{
		Set: "fig11b", Key: runner.Key("fig11b", "checkpoint", sc.EpisodeCount),
		Scale: sc.Name, Seed: math.MinInt64, Input: input,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) >= 1<<20 {
		t.Fatalf("fig11b full-scale request is %d bytes, not under 1 MiB", len(body))
	}
	t.Logf("fig11b full-scale request: %d bytes (%d per snapshot)", len(body), len(body)/len(cp.Snapshots))
}

// TestJobSetTable pins the one job-set table, listed sorted; an unknown set
// is an error
// (mismatched binaries), not a panic. Duplicate names cannot be tested —
// the table is a map literal, so they do not compile.
func TestJobSetTable(t *testing.T) {
	want := "[faultsweep fig1 fig10 fig11a fig11b fig3 fig4 fig5 fig9a fig9b gensweep table1]"
	if got := fmt.Sprint(JobSets()); got != want {
		t.Fatalf("JobSets() = %s, want %s", got, want)
	}
	if _, err := (Exec{}).RunJob("no-such-set", "tiny", 42, nil, "k"); err == nil || !strings.Contains(err.Error(), "unknown job set") {
		t.Fatalf("unknown set: err = %v", err)
	}
	if _, err := (Exec{}).RunJob("table1", "tiny", 42, nil, "no-such-key"); err == nil || !strings.Contains(err.Error(), "has no job") {
		t.Fatalf("unknown key: err = %v", err)
	}
	if _, err := (Exec{}).RunJob("table1", "no-such-scale", 42, nil, "k"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}
