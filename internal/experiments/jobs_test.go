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
	cp := testCheckpoints(t, sc)
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

// TestJobSetTable pins the job sets of the declared table, listed sorted;
// an unknown set is an error (mismatched binaries), not a panic. Duplicate
// names cannot be tested — the table is a map literal, so they do not
// compile.
func TestJobSetTable(t *testing.T) {
	want := "[faultsweep fig1 fig10 fig11a fig11b fig3 fig4 fig5 fig9a fig9b gensweep table1]"
	if got := fmt.Sprint(JobSets()); got != want {
		t.Fatalf("JobSets() = %s, want %s", got, want)
	}
	for _, id := range IDs() {
		if Title(id) == "" {
			t.Errorf("experiment %s has no title for firmbench's header", id)
		}
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

// testCheckpoints is a fig11b input of the shape sc produces: one fresh
// agent snapshot per checkpoint episode.
func testCheckpoints(t *testing.T, sc Scale) checkpoints {
	t.Helper()
	snap, err := rl.New(rl.DefaultConfig()).Save()
	if err != nil {
		t.Fatal(err)
	}
	var cp checkpoints
	for ep := sc.CheckpointEvery; ep <= sc.EpisodeCount; ep += sc.CheckpointEvery {
		cp.Episodes = append(cp.Episodes, ep)
		cp.Snapshots = append(cp.Snapshots, snap)
	}
	return cp
}

// TestCellKeysUniqueAndOwned builds every declared experiment's cell list,
// at tiny and at quick scale, without running a cell. Seeds derive from
// keys, so every key must be unique within its set, and it must start with
// "<id>/" so no two sets can share one.
func TestCellKeysUniqueAndOwned(t *testing.T) {
	for _, sc := range []Scale{TinyScale(), QuickScale()} {
		cp := testCheckpoints(t, sc)
		inputs := map[string]any{"fig1": cp.Snapshots[0], "fig10": cp.Snapshots[0], "fig11b": cp}
		for _, id := range JobSets() {
			var input []byte
			if in, ok := inputs[id]; ok {
				var err error
				if input, err = wireEncode(in); err != nil {
					t.Fatal(err)
				}
			}
			jobs, err := declared[id].jobs(Exec{}, sc, 42, input)
			if err != nil {
				t.Fatalf("%s at %s: %v", id, sc.Name, err)
			}
			if len(jobs) == 0 {
				t.Errorf("%s at %s: no cells", id, sc.Name)
			}
			seen := map[string]bool{}
			for _, j := range jobs {
				if !strings.HasPrefix(j.Key, id+"/") {
					t.Errorf("%s at %s: key %q does not start with %q", id, sc.Name, j.Key, id+"/")
				}
				if seen[j.Key] {
					t.Errorf("%s at %s: duplicate key %q", id, sc.Name, j.Key)
				}
				seen[j.Key] = true
			}
		}
	}
}

// stubDispatcher counts the sets it is asked to run and answers every key
// with a zero result.
type stubDispatcher struct{ calls int }

func (d *stubDispatcher) RunJobs(_, _ string, _ int64, _ []byte, keys []string) ([][]byte, error) {
	d.calls++
	out := make([][]byte, len(keys))
	for i := range out {
		var err error
		if out[i], err = wireEncode(0); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestBothDispatchPathsCheckJobLists: a list with a duplicate key or a nil
// Run is refused the same way whether it would run locally or remotely (a
// dispatcher finds jobs by key, so it would run the first of two twice and
// succeed), and it is never dispatched. A worker rebuilding such a list
// refuses it too.
func TestBothDispatchPathsCheckJobLists(t *testing.T) {
	run := func(int64) (int, error) { return 1, nil }
	for _, tc := range []struct {
		name string
		jobs []runner.Job[int]
		want string
	}{
		{"duplicate key", []runner.Job[int]{{Key: "t/a", Run: run}, {Key: "t/a", Run: run}}, "duplicate job key"},
		{"nil Run", []runner.Job[int]{{Key: "t/a", Run: run}, {Key: "t/b"}}, "nil Run"},
	} {
		for _, remote := range []bool{false, true} {
			d := &stubDispatcher{}
			x := Exec{}
			if remote {
				x.Remote = d
			}
			_, err := mapJobs(x, "t", TinyScale(), 42, noInput{}, tc.jobs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, remote=%v: err = %v, want %q", tc.name, remote, err, tc.want)
			}
			if d.calls != 0 {
				t.Errorf("%s: dispatched a list the local path refuses", tc.name)
			}
		}
		cells := func(Exec, Scale, int64, noInput) ([]runner.Job[int], error) { return tc.jobs, nil }
		if _, err := fineJobs(cells)(Exec{}, TinyScale(), 42, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: worker rebuild err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
