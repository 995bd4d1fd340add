package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"firm/internal/sim"
)

// arithSet is the one job set the synthetic executor knows.
const arithSet = "dist-test/arith"

// arithRun returns a synthetic executor whose results are a pure function
// of (scale, seed, input, key) — the same contract real sets get from
// DeriveSeed — with a touch of latency so loopback workers interleave. The
// job keyed badKey fails.
func arithRun(badKey string) RunFunc {
	return func(set, scale string, seed int64, input []byte, key string) ([]byte, error) {
		if set != arithSet {
			return nil, fmt.Errorf("unknown job set %q", set)
		}
		if key == badKey {
			return nil, fmt.Errorf("synthetic job failure at %s", key)
		}
		time.Sleep(2 * time.Millisecond)
		return json.Marshal(fmt.Sprintf("%s/%s@%d<%s>", scale, key, sim.DeriveSeed(seed, key), input))
	}
}

// countingRun wraps run with a call counter: as a pool's Local it counts
// the jobs the coordinator ran itself.
func countingRun(run RunFunc) (RunFunc, *atomic.Int32) {
	var n atomic.Int32
	return func(set, scale string, seed int64, input []byte, key string) ([]byte, error) {
		n.Add(1)
		return run(set, scale, seed, input, key)
	}, &n
}

func keysN(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// localResults computes the reference results the way a single machine
// would, straight from the executor, for jobs without input.
func localResults(t *testing.T, scale string, seed int64, keys []string) [][]byte {
	t.Helper()
	run := arithRun("")
	out := make([][]byte, len(keys))
	for i, k := range keys {
		data, err := run(arithSet, scale, seed, nil, k)
		if err != nil {
			t.Fatalf("local %s: %v", k, err)
		}
		out[i] = data
	}
	return out
}

func assertSameBytes(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("result %d differs: %s vs local %s", i, got[i], want[i])
		}
	}
}

// handler is a worker handler over the synthetic executor.
// alive counts the hosts the pool still considers usable (all of them
// before the first Run's health check).
func alive(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead == nil {
		return len(p.Hosts)
	}
	n := 0
	for _, d := range p.dead {
		if !d {
			n++
		}
	}
	return n
}

func handler() http.Handler { return Handler([]string{arithSet}, arithRun("")) }

func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv, _ := newCountingWorker(t)
	return srv
}

// newCountingWorker is newWorker with a count of the jobs it served.
func newCountingWorker(t *testing.T) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	run, n := countingRun(arithRun(""))
	srv := httptest.NewServer(Handler([]string{arithSet}, run))
	t.Cleanup(srv.Close)
	return srv, n
}

func TestLoopbackByteIdenticalToLocal(t *testing.T) {
	keys := keysN("k", 12)
	w1, n1 := newCountingWorker(t)
	w2, n2 := newCountingWorker(t)
	local, nLocal := countingRun(arithRun(""))
	p := NewPool([]string{w1.URL, w2.URL}, local)
	got, err := p.RunJobs(arithSet, "tiny", 42, nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, got, localResults(t, "tiny", 42, keys))
	if n1.Load() == 0 || n2.Load() == 0 || nLocal.Load() != 0 {
		t.Fatalf("jobs served: worker 1 %d, worker 2 %d, local %d; want both workers and no local", n1.Load(), n2.Load(), nLocal.Load())
	}
}

// TestInputReachesEveryJob: the set's input rides every request and
// reaches each job byte for byte, on a worker and in the local fallback.
func TestInputReachesEveryJob(t *testing.T) {
	keys := keysN("k", 6)
	input := []byte(`"c25hcHNob3Q="`)
	want := make([][]byte, len(keys))
	for i, k := range keys {
		want[i], _ = arithRun("")(arithSet, "tiny", 4, input, k)
	}
	for _, hosts := range [][]string{{newWorker(t).URL}, nil} {
		got, err := NewPool(hosts, arithRun("")).RunJobs(arithSet, "tiny", 4, input, keys)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBytes(t, got, want)
	}
}

// TestWorkerDeathRequeues kills one worker's transport mid-campaign: its
// in-flight and undispatched jobs must land on the surviving worker and the
// result bytes must not change.
func TestWorkerDeathRequeues(t *testing.T) {
	keys := keysN("k", 10)
	inner := handler()
	var served atomic.Int32
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/run") && served.Add(1) > 2 {
			panic(http.ErrAbortHandler) // drop the connection: a crashed worker
		}
		inner.ServeHTTP(w, r)
	}))
	defer dying.Close()
	healthy := newWorker(t)

	local, nLocal := countingRun(arithRun(""))
	p := NewPool([]string{dying.URL, healthy.URL}, local)
	got, err := p.RunJobs(arithSet, "tiny", 7, nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, got, localResults(t, "tiny", 7, keys))
	if alive(p) != 1 {
		t.Fatalf("dying worker should be dropped: alive=%d", alive(p))
	}
	if n := nLocal.Load(); n != 0 {
		t.Fatalf("%d job(s) fell back locally with a healthy worker up", n)
	}
}

// TestAllWorkersDeadFallsBackLocally exercises the local-execution
// fallback: with every worker gone the coordinator must finish the
// campaign itself, byte-identically.
func TestAllWorkersDeadFallsBackLocally(t *testing.T) {
	keys := keysN("k", 6)
	abort := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/run") {
			panic(http.ErrAbortHandler)
		}
		handler().ServeHTTP(w, r) // healthz passes: death happens mid-campaign
	})
	w1, w2 := httptest.NewServer(abort), httptest.NewServer(abort)
	defer w1.Close()
	defer w2.Close()
	local, nLocal := countingRun(arithRun(""))
	p := NewPool([]string{w1.URL, w2.URL}, local)
	got, err := p.RunJobs(arithSet, "tiny", 3, nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, got, localResults(t, "tiny", 3, keys))
	if n := nLocal.Load(); n != int32(len(keys)) {
		t.Fatalf("%d job(s) ran locally after total pool death, want %d", n, len(keys))
	}
	if alive(p) != 0 {
		t.Fatalf("alive=%d after both workers died", alive(p))
	}
}

func TestNoHostsRunsEverythingLocally(t *testing.T) {
	keys := keysN("k", 4)
	p := NewPool(nil, arithRun(""))
	got, err := p.RunJobs(arithSet, "quick", 9, nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, got, localResults(t, "quick", 9, keys))
}

func TestUnreachableHostIsDroppedNotFatal(t *testing.T) {
	keys := keysN("k", 4)
	healthy, served := newCountingWorker(t)
	p := NewPool([]string{"127.0.0.1:1", healthy.URL}, arithRun("")) // port 1: nothing listens
	p.ReadyTimeout = 50 * time.Millisecond
	got, err := p.RunJobs(arithSet, "tiny", 5, nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, got, localResults(t, "tiny", 5, keys))
	if n := served.Load(); n != int32(len(keys)) {
		t.Fatalf("healthy worker served %d job(s), want all %d", n, len(keys))
	}
}

// TestJobErrorAbortsCampaign distinguishes application failures from
// worker failures: a job that runs and fails must abort the campaign (as
// it would locally), not bounce between workers.
func TestJobErrorAbortsCampaign(t *testing.T) {
	keys := keysN("k", 6)
	w := httptest.NewServer(Handler([]string{arithSet}, arithRun("k3")))
	defer w.Close()
	p := NewPool([]string{w.URL}, arithRun(""))
	_, err := p.RunJobs(arithSet, "tiny", 1, nil, keys)
	if err == nil || !strings.Contains(err.Error(), "synthetic job failure at k3") {
		t.Fatalf("want the job's own error, got %v", err)
	}
	if alive(p) != 1 {
		t.Fatal("a job error must not kill the worker that reported it")
	}
}

func TestTimeoutTreatedAsWorkerFailure(t *testing.T) {
	keys := keysN("k", 3)
	inner := handler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/run") {
			time.Sleep(300 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	}))
	defer slow.Close()
	p := NewPool([]string{slow.URL}, arithRun(""))
	p.Timeout = 50 * time.Millisecond
	got, err := p.RunJobs(arithSet, "tiny", 2, nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	// The hung worker is dropped and the campaign completes via fallback.
	assertSameBytes(t, got, localResults(t, "tiny", 2, keys))
	if alive(p) != 0 {
		t.Fatal("timed-out worker should be dropped")
	}
}

// TestPoolReusesConnections verifies the shared-client fix: a campaign's
// job calls to one worker must ride a handful of kept-alive TCP
// connections, not one fresh connection per call (the old per-call
// http.Client construction defeated the transport's connection cache).
func TestPoolReusesConnections(t *testing.T) {
	keys := keysN("k", 16)
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(handler())
	srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	p := NewPool([]string{srv.URL}, arithRun(""))
	got, err := p.RunJobs(arithSet, "tiny", 42, nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, got, localResults(t, "tiny", 42, keys))
	// One connection serves the health check and all 16 sequential jobs;
	// allow a little slack for transport races, but 17 separate
	// connections (the per-call-client behaviour) must fail.
	if n := conns.Load(); n > 4 {
		t.Fatalf("%d TCP connections for 16 jobs + health check; want connection reuse", n)
	}
}

// TestReadyTimeoutNotOvershotByProbe pins the ready() deadline fix: with a
// ReadyTimeout well below the old fixed 2s probe timeout, an unreachable
// host must be declared dead at roughly the configured deadline, not after
// a full probe's worth of extra waiting.
func TestReadyTimeoutNotOvershotByProbe(t *testing.T) {
	// A listener that accepts and then stays silent, so the probe must wait
	// out its timeout rather than fail fast with a connection refusal.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // hold silently until the listener closes
		}
	}()
	local, nLocal := countingRun(arithRun(""))
	p := NewPool([]string{ln.Addr().String()}, local)
	p.ReadyTimeout = 300 * time.Millisecond
	start := time.Now()
	_, err = p.RunJobs(arithSet, "tiny", 9, nil, keysN("k", 2))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if alive(p) != 0 {
		t.Fatalf("silent host still alive after ready check")
	}
	if n := nLocal.Load(); n != 2 {
		t.Fatalf("%d job(s) ran locally, want both", n)
	}
	// 300ms deadline + scheduling slack; the old behaviour waited the full
	// 2s probe.
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("ready check took %v with a 300ms ReadyTimeout", elapsed)
	}
}

// TestRunRejectsMalformedRequests pins the /run body checks: an oversized
// body, truncated JSON and an unknown field are refused before any job
// runs, with a status the coordinator treats as a worker failure.
func TestRunRejectsMalformedRequests(t *testing.T) {
	var ran atomic.Int32
	srv := httptest.NewServer(Handler([]string{arithSet}, func(set, scale string, seed int64, input []byte, key string) ([]byte, error) {
		ran.Add(1)
		return arithRun("")(set, scale, seed, input, key)
	}))
	defer srv.Close()
	valid := `{"set":"` + arithSet + `","key":"k0","scale":"tiny","seed":1}`
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"valid", valid, http.StatusOK},
		{"oversized", `{"set":"` + strings.Repeat("x", maxRequestBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"truncated", valid[:len(valid)-9], http.StatusBadRequest},
		{"unknown-field", `{"set":"` + arithSet + `","key":"k0","scale":"tiny","seed":1,"shards":4}`, http.StatusBadRequest},
		{"not-json", "set=a&key=b", http.StatusBadRequest},
		{"empty", "", http.StatusBadRequest},
	} {
		before := ran.Load()
		resp, err := http.Post(srv.URL+"/run", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		wantRuns := int32(0)
		if tc.want == http.StatusOK {
			wantRuns = 1
		}
		if got := ran.Load() - before; got != wantRuns {
			t.Errorf("%s: %d job(s) ran, want %d", tc.name, got, wantRuns)
		}
	}
}

// TestOverBoundRequestIsJobError: a request whose body is over the worker's
// bound fails as a job error naming its set, key and size, before it is
// sent. Were the worker's 413 a worker failure, every worker would be
// dropped in turn and the job would quietly run locally.
func TestOverBoundRequestIsJobError(t *testing.T) {
	w, served := newCountingWorker(t)
	local, nLocal := countingRun(arithRun(""))
	p := NewPool([]string{w.URL}, local)
	input, err := json.Marshal(make([]byte, maxRequestBytes))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(JobRequest{Set: arithSet, Key: "k0", Scale: "tiny", Seed: 1, Input: input})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.RunJobs(arithSet, "tiny", 1, input, keysN("k", 3))
	if err == nil {
		t.Fatal("over-bound request succeeded")
	}
	for _, want := range []string{arithSet, "k0", fmt.Sprint(len(body))} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if alive(p) != 1 || served.Load() != 0 || nLocal.Load() != 0 {
		t.Fatalf("alive %d, served %d, local %d; want the worker kept and nothing run", alive(p), served.Load(), nLocal.Load())
	}
}

// FuzzRunRequest sends arbitrary /run bodies, and well-formed requests
// built from arbitrary fields, to the worker handler. It must never panic
// and answer 200, 400 or 413 only; a 200 carries a JobResponse with
// exactly one of Result and Error; and a well-formed request's input
// reaches the RunFunc byte for byte.
func FuzzRunRequest(f *testing.F) {
	f.Add([]byte(`{"set":"s","key":"k","scale":"tiny","seed":1}`), "s", "k", int64(1), []byte("weights"))
	f.Add([]byte(`{"set":"fail","key":"k","scale":"tiny","seed":1,"input":"AAE="}`), "fail", "k", int64(-3), []byte{})
	f.Add([]byte(`{"set":"s","input":null}`), "", "", int64(0), []byte{0, 1, 2})
	f.Add([]byte(`{"set":"s","shards":4}`), "s", "\xff", int64(7), []byte(nil))
	f.Add([]byte(`{"set":"s"`), "s", "k", int64(1), []byte("x"))
	f.Fuzz(func(t *testing.T, body []byte, set, key string, seed int64, input []byte) {
		var got []byte
		run := func(set, scale string, seed int64, in []byte, key string) ([]byte, error) {
			got = append([]byte(nil), in...)
			if set == "fail" {
				return nil, fmt.Errorf("job %q failed", key)
			}
			return json.Marshal(key)
		}
		h := Handler([]string{"s"}, run)
		post := func(body []byte) int {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK:
				var resp JobResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("200 body %q does not decode: %v", rec.Body.Bytes(), err)
				}
				if (resp.Result == nil) == (resp.Error == "") {
					t.Fatalf("200 body %q must carry exactly one of result and error", rec.Body.Bytes())
				}
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("status %d for body %q", rec.Code, body)
			}
			return rec.Code
		}

		got = nil
		if post(body) == http.StatusOK {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			var req JobRequest
			if err := dec.Decode(&req); err != nil {
				t.Fatalf("handler accepted %q, which does not decode: %v", body, err)
			}
			if !bytes.Equal(got, req.Input) {
				t.Fatalf("input %q reached the job as %q", req.Input, got)
			}
		}

		wire, err := json.Marshal(input)
		if err != nil {
			t.Fatal(err)
		}
		req, err := json.Marshal(JobRequest{Set: set, Key: key, Scale: "tiny", Seed: seed, Input: wire})
		if err != nil {
			t.Fatal(err)
		}
		if len(req) > maxRequestBytes {
			return
		}
		got = nil
		if code := post(req); code != http.StatusOK {
			t.Fatalf("well-formed request %q answered %d", req, code)
		}
		if !bytes.Equal(got, wire) {
			t.Fatalf("input %q reached the job as %q", wire, got)
		}
	})
}
