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
	_, err := p.RunJobs("dist-test/never-registered", "tiny", 1, nil, []string{"x"})
	if err == nil || !strings.Contains(err.Error(), "unknown job set") {
		t.Fatalf("want unknown-set job error, got %v", err)
	}
	if alive(p) != 1 {
		t.Fatal("a job error must not kill the worker that reported it")
	}
}

// TestFineGrainedDispatchByteIdentical hands the pool to real experiments
// as their Exec.Remote, the way `firmbench -dist` does: every cell runs on
// one of two loopback workers (builder re-enumeration there, input and
// result round-trips through the wire), and the artifact's record — which
// its text is drawn from — must reproduce the local run byte for byte. The
// table covers a set without input (table1), the sets whose input is a
// trained agent (fig1, fig10) or its checkpoints (fig11b), and training
// cells (fig11a).
func TestFineGrainedDispatchByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	sc := experiments.TinyScale()
	workerExec := experiments.Exec{Pool: runner.NewPool(2)}
	w1, w2 := newExperimentWorker(t, workerExec), newExperimentWorker(t, workerExec)
	for _, id := range []string{"table1", "fig1", "fig10", "fig11a", "fig11b"} {
		run, _ := experiments.Get(id)
		t.Run(id, func(t *testing.T) {
			local, err := run(experiments.Exec{}, sc, 42)
			if err != nil {
				t.Fatal(err)
			}
			served, count := countingRun(workerExec.RunJob)
			p := NewPool([]string{w1.URL, w2.URL}, served)
			remote, err := run(experiments.Exec{Remote: p}, sc, 42)
			if err != nil {
				t.Fatal(err)
			}
			if n := count.Load(); n != 0 {
				t.Fatalf("%d cell(s) fell back to the coordinator", n)
			}
			lj, err := json.Marshal(local.Report())
			if err != nil {
				t.Fatal(err)
			}
			rj, err := json.Marshal(remote.Report())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lj, rj) {
				t.Fatalf("dispatched %s record differs from local:\n%s\nvs\n%s", id, rj, lj)
			}
		})
	}
}
