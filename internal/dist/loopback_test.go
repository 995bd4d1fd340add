package dist

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"firm/internal/experiments"
	"firm/internal/runner"
)

// newExperimentWorker serves the real experiment job sets the way
// `firmbench -serve` does, under the given execution settings.
func newExperimentWorker(t *testing.T, x experiments.Exec) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(Handler(experiments.JobSets(), x.RunJob))
	t.Cleanup(srv.Close)
	return srv
}

// TestWorkerRejectsUnknownSetAsJobError: a set the worker's registry does
// not know is a job error (the binaries disagree; retrying elsewhere cannot
// help), not a worker failure.
func TestWorkerRejectsUnknownSetAsJobError(t *testing.T) {
	w := newExperimentWorker(t, experiments.Exec{})
	p := NewPool([]string{w.URL}, experiments.Exec{}.RunJob)
	_, err := p.Run("dist-test/never-registered", "tiny", 1, []string{"x"})
	if err == nil || !strings.Contains(err.Error(), "unknown job set") {
		t.Fatalf("want unknown-set job error, got %v", err)
	}
	if alive(p) != 1 {
		t.Fatal("a job error must not kill the worker that reported it")
	}
}

// TestExperimentSetLoopback runs a whole experiment (fig9c: cheap, no
// simulation) through a loopback worker and checks the payload is
// byte-identical to computing it in-process — the unit-level version of the
// CI smoke's full-campaign comparison.
func TestExperimentSetLoopback(t *testing.T) {
	w := newExperimentWorker(t, experiments.Exec{})
	p := NewPool([]string{w.URL}, experiments.Exec{}.RunJob)
	rs, err := p.Run(experiments.ExperimentSet, "tiny", 42, []string{"fig9c"})
	if err != nil {
		t.Fatal(err)
	}
	var payload experiments.ExperimentPayload
	if err := json.Unmarshal(rs[0].Data, &payload); err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Fig9c(experiments.Exec{}, experiments.TinyScale(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if payload.Text != res.String() {
		t.Fatalf("remote text differs from local:\n%s\nvs\n%s", payload.Text, res.String())
	}
	rep := res.Report()
	rep.Scale = "tiny"
	rep.Seed = 42
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload.Report, want) {
		t.Fatalf("remote report record differs from local:\n%s\nvs\n%s", payload.Report, want)
	}
	if rs[0].Worker != 1 {
		t.Fatalf("provenance slot = %d, want 1", rs[0].Worker)
	}
}

// TestFineGrainedDispatchByteIdentical hands the pool to a real fan-out
// experiment as its Exec.Remote: the job-level remote
// path (builder re-enumeration on the worker, JSON round-trip of results)
// must reproduce the local artifact byte for byte.
func TestFineGrainedDispatchByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	sc := experiments.TinyScale()
	local, err := experiments.Table1(experiments.Exec{}, sc, 42)
	if err != nil {
		t.Fatal(err)
	}
	workerExec := experiments.Exec{Pool: runner.NewPool(2)}
	w1, w2 := newExperimentWorker(t, workerExec), newExperimentWorker(t, workerExec)
	p := NewPool([]string{w1.URL, w2.URL}, experiments.Exec{}.RunJob)
	remote, err := experiments.Table1(experiments.Exec{Remote: p}, sc, 42)
	if err != nil {
		t.Fatal(err)
	}
	if local.String() != remote.String() {
		t.Fatalf("dispatched Table1 differs from local:\n%s\nvs\n%s", remote, local)
	}
}
