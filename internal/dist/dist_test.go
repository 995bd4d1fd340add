package dist

import (
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
// of (scale, seed, key) — the same contract real sets get from DeriveSeed —
// with a touch of latency so loopback workers interleave. The job keyed
// badKey fails.
func arithRun(badKey string) RunFunc {
	return func(set, scale string, seed int64, key string) ([]byte, error) {
		if set != arithSet {
			return nil, fmt.Errorf("unknown job set %q", set)
		}
		if key == badKey {
			return nil, fmt.Errorf("synthetic job failure at %s", key)
		}
		time.Sleep(2 * time.Millisecond)
		return json.Marshal(fmt.Sprintf("%s/%s@%d", scale, key, sim.DeriveSeed(seed, key)))
	}
}

func keysN(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// localResults computes the reference results the way a single machine
// would, straight from the executor.
func localResults(t *testing.T, scale string, seed int64, keys []string) [][]byte {
	t.Helper()
	run := arithRun("")
	out := make([][]byte, len(keys))
	for i, k := range keys {
		data, err := run(arithSet, scale, seed, k)
		if err != nil {
			t.Fatalf("local %s: %v", k, err)
		}
		out[i] = data
	}
	return out
}

func assertSameBytes(t *testing.T, got []Result, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i].Data) != string(want[i]) {
			t.Fatalf("result %d differs: %s vs local %s", i, got[i].Data, want[i])
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
	srv := httptest.NewServer(handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestLoopbackByteIdenticalToLocal(t *testing.T) {
	keys := keysN("k", 12)
	w1, w2 := newWorker(t), newWorker(t)
	p := NewPool([]string{w1.URL, w2.URL}, arithRun(""))
	got, err := p.Run(arithSet, "tiny", 42, keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, got, localResults(t, "tiny", 42, keys))
	seen := map[int]bool{}
	for _, r := range got {
		if r.Worker < 1 || r.Worker > 2 {
			t.Fatalf("provenance slot %d out of range", r.Worker)
		}
		seen[r.Worker] = true
	}
	if len(seen) != 2 {
		t.Fatalf("both workers should have produced results, got slots %v", seen)
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

	p := NewPool([]string{dying.URL, healthy.URL}, arithRun(""))
	got, err := p.Run(arithSet, "tiny", 7, keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, got, localResults(t, "tiny", 7, keys))
	if alive(p) != 1 {
		t.Fatalf("dying worker should be dropped: alive=%d", alive(p))
	}
	for i, r := range got {
		if r.Worker == 0 {
			t.Fatalf("result %d fell back locally with a healthy worker up", i)
		}
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
	p := NewPool([]string{w1.URL, w2.URL}, arithRun(""))
	got, err := p.Run(arithSet, "tiny", 3, keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, got, localResults(t, "tiny", 3, keys))
	for i, r := range got {
		if r.Worker != 0 {
			t.Fatalf("result %d claims worker %d after total pool death", i, r.Worker)
		}
	}
	if alive(p) != 0 {
		t.Fatalf("alive=%d after both workers died", alive(p))
	}
}

func TestNoHostsRunsEverythingLocally(t *testing.T) {
	keys := keysN("k", 4)
	p := NewPool(nil, arithRun(""))
	got, err := p.Run(arithSet, "quick", 9, keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, got, localResults(t, "quick", 9, keys))
}

func TestUnreachableHostIsDroppedNotFatal(t *testing.T) {
	keys := keysN("k", 4)
	healthy := newWorker(t)
	p := NewPool([]string{"127.0.0.1:1", healthy.URL}, arithRun("")) // port 1: nothing listens
	p.ReadyTimeout = 50 * time.Millisecond
	got, err := p.Run(arithSet, "tiny", 5, keys)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, got, localResults(t, "tiny", 5, keys))
	for i, r := range got {
		if r.Worker != 2 {
			t.Fatalf("result %d produced by slot %d, want the healthy worker (2)", i, r.Worker)
		}
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
	_, err := p.Run(arithSet, "tiny", 1, keys)
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
	got, err := p.Run(arithSet, "tiny", 2, keys)
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
	got, err := p.Run(arithSet, "tiny", 42, keys)
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
	p := NewPool([]string{ln.Addr().String()}, arithRun(""))
	p.ReadyTimeout = 300 * time.Millisecond
	start := time.Now()
	got, err := p.Run(arithSet, "tiny", 9, keysN("k", 2))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if alive(p) != 0 {
		t.Fatalf("silent host still alive after ready check")
	}
	for i, r := range got {
		if r.Worker != 0 {
			t.Fatalf("result %d from slot %d, want local fallback (0)", i, r.Worker)
		}
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
	srv := httptest.NewServer(Handler([]string{arithSet}, func(set, scale string, seed int64, key string) ([]byte, error) {
		ran.Add(1)
		return arithRun("")(set, scale, seed, key)
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
