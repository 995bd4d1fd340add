package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Pool is a campaign-scoped coordinator over a fixed set of worker hosts.
// A host that fails a transport round-trip is dead for the rest of the
// campaign (workers do not rejoin: campaigns are short-lived and a flapping
// worker re-running jobs could not change results anyway, only waste them).
// Pool is safe for concurrent RunJobs calls.
type Pool struct {
	// Hosts are worker addresses ("host:port", or full http:// URLs); logs
	// number them from 1 in this order.
	Hosts []string
	// Timeout bounds one job's HTTP round-trip; 0 means no limit (training
	// experiments legitimately run for a long time). A worker that exceeds
	// it is treated as failed and its job is requeued.
	Timeout time.Duration
	// ReadyTimeout bounds the initial health-check wait per host (default
	// 10s): workers started concurrently with the coordinator get a grace
	// period to begin listening before they are declared dead.
	ReadyTimeout time.Duration
	// Progress, when non-nil, receives per-job completion lines (the
	// distributed counterpart of runner's stderr progress feed).
	Progress func(format string, args ...any)
	// Local is the fallback executor for jobs no worker is left to run —
	// the same function a worker of this binary would serve.
	Local RunFunc

	mu      sync.Mutex
	dead    []bool
	checked bool

	clientOnce sync.Once
	httpClient *http.Client
}

// client returns the pool's shared HTTP client. One client per pool keeps
// the transport's keep-alive connection cache: the previous per-call
// client construction opened a fresh TCP connection for every job, which a
// thousand-cell gensweep campaign turns into a thousand connection
// handshakes per worker. Per-call deadlines are applied via request
// contexts, not client timeouts, so sharing is safe.
func (p *Pool) client() *http.Client {
	p.clientOnce.Do(func() { p.httpClient = &http.Client{} })
	return p.httpClient
}

// NewPool builds a pool over the given hosts, falling back to local when
// none of them is left.
func NewPool(hosts []string, local RunFunc) *Pool {
	return &Pool{Hosts: hosts, Local: local}
}

// hostURL normalizes a host entry to a base URL.
func hostURL(h string) string {
	if strings.HasPrefix(h, "http://") || strings.HasPrefix(h, "https://") {
		return strings.TrimRight(h, "/")
	}
	return "http://" + h
}

// ready health-checks every host once per pool, in parallel, retrying each
// until ReadyTimeout so workers booting alongside the coordinator are not
// misclassified as dead.
func (p *Pool) ready() {
	p.mu.Lock()
	if p.checked {
		p.mu.Unlock()
		return
	}
	p.checked = true
	p.dead = make([]bool, len(p.Hosts))
	p.mu.Unlock()

	wait := p.ReadyTimeout
	if wait <= 0 {
		wait = 10 * time.Second
	}
	var wg sync.WaitGroup
	for i, h := range p.Hosts {
		i, h := i, h
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(wait)
			for {
				// Each probe is capped at the time remaining (at most 2s):
				// with the old fixed 2s client timeout, a ReadyTimeout
				// shorter than one probe was silently overshot.
				remaining := time.Until(deadline)
				if remaining <= 0 {
					p.markDead(i, fmt.Errorf("no /healthz response within %s", wait), "")
					return
				}
				probe := 2 * time.Second
				if remaining < probe {
					probe = remaining
				}
				ctx, cancel := context.WithTimeout(context.Background(), probe)
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, hostURL(h)+"/healthz", nil)
				if err == nil {
					var resp *http.Response
					resp, err = p.client().Do(req)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode == http.StatusOK {
							cancel()
							return
						}
					}
				}
				cancel()
				if sleep := time.Until(deadline); sleep > 500*time.Millisecond {
					sleep = 500 * time.Millisecond
					time.Sleep(sleep)
				} else if sleep > 0 {
					time.Sleep(sleep)
				}
			}
		}()
	}
	wg.Wait()
}

func (p *Pool) markDead(i int, err error, key string) {
	p.mu.Lock()
	already := p.dead[i]
	p.dead[i] = true
	p.mu.Unlock()
	if already {
		return
	}
	if key != "" {
		log.Printf("dist: worker %d (%s) failed on %q: %v — job requeued, worker dropped", i+1, p.Hosts[i], key, err)
	} else {
		log.Printf("dist: worker %d (%s) unreachable: %v — dropped", i+1, p.Hosts[i], err)
	}
}

func (p *Pool) aliveHosts() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []int
	for i := range p.Hosts {
		if !p.dead[i] {
			out = append(out, i)
		}
	}
	return out
}

// call runs one job on one host. jobErr is an application failure reported
// by the worker (aborts the campaign); transportErr is a worker failure
// (requeue). Exactly one of data/jobErr/transportErr is meaningful. A
// request over the worker's body bound is a job error, checked before
// sending: every worker would refuse it, so treating the refusal as a
// worker failure would drop the whole pool one worker at a time.
func (p *Pool) call(host int, req JobRequest) (data []byte, jobErr, transportErr error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err, nil // an input that is not JSON: no worker could take it
	}
	if len(body) > maxRequestBytes {
		return nil, fmt.Errorf("request is %d bytes, over the %d-byte bound", len(body), maxRequestBytes), nil
	}
	// The per-job deadline lives on the request context; the client itself
	// is shared pool-wide so completed calls keep their connections alive.
	ctx := context.Background()
	cancel := func() {}
	if p.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, p.Timeout)
	}
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, hostURL(p.Hosts[host])+"/run", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := p.client().Do(hreq)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return nil, nil, fmt.Errorf("bad response body: %w", err)
	}
	if jr.Error != "" {
		return nil, fmt.Errorf("%s", jr.Error), nil
	}
	if jr.Result == nil {
		// A 200 with neither result nor error violates the protocol (an
		// intermediary, or a worker speaking a different dialect): treat it
		// as a worker failure so the job is retried elsewhere rather than
		// recorded as an empty success.
		return nil, nil, fmt.Errorf("protocol violation: 200 response with no result and no error")
	}
	return jr.Result, nil, nil
}

func (p *Pool) progress(format string, args ...any) {
	if p.Progress != nil {
		p.Progress(format, args...)
	}
}

// RunJobs implements internal/experiments.Dispatcher: it executes the
// named job set's listed keys across the pool, every request carrying
// input, and returns one result per key, in key order. Scheduling is
// pull-shaped: one job is outstanding per worker, so an idle worker takes
// the next job the moment it finishes. A transport failure drops the
// worker and requeues its job; when no workers remain, the coordinator
// runs what is left itself, in key order. A job error (the job ran and
// failed, or its request is over the bound) aborts the campaign like a
// local failure would; the error reported is the first in key order among
// the jobs that failed.
func (p *Pool) RunJobs(set, scale string, seed int64, input []byte, keys []string) ([][]byte, error) {
	n := len(keys)
	results := make([][]byte, n)
	if n == 0 {
		return results, nil
	}
	p.ready()

	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		queue   = make([]int, 0, n)
		done    int
		failIdx = -1
		failErr error
	)
	for i := range keys {
		queue = append(queue, i)
	}
	fail := func(idx int, err error) {
		if failIdx < 0 || idx < failIdx {
			failIdx, failErr = idx, err
		}
	}

	var wg sync.WaitGroup
	for _, hi := range p.aliveHosts() {
		hi := hi
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for len(queue) == 0 && done < n && failErr == nil {
					cond.Wait()
				}
				if done == n || failErr != nil {
					mu.Unlock()
					return
				}
				idx := queue[0]
				queue = queue[1:]
				mu.Unlock()

				data, jobErr, terr := p.call(hi, JobRequest{Set: set, Key: keys[idx], Scale: scale, Seed: seed, Input: input})
				mu.Lock()
				switch {
				case terr != nil:
					queue = append(queue, idx)
					cond.Broadcast()
					mu.Unlock()
					p.markDead(hi, terr, keys[idx])
					return
				case jobErr != nil:
					fail(idx, jobErr)
					cond.Broadcast()
					mu.Unlock()
					return
				default:
					results[idx] = data
					done++
					d := done
					if done == n {
						cond.Broadcast()
					}
					mu.Unlock()
					p.progress("[%d/%d] %s/%s done on worker %d (%s)", d, n, set, keys[idx], hi+1, p.Hosts[hi])
				}
			}
		}()
	}
	wg.Wait()

	// Every worker is gone or the pool was empty to begin with: finish the
	// remaining jobs in-process, in key order, so the campaign completes
	// with the same bytes regardless.
	if failErr == nil && done < n {
		rest := append([]int(nil), queue...)
		sort.Ints(rest)
		if len(rest) > 0 {
			log.Printf("dist: no workers left, running %d remaining job(s) locally", len(rest))
		}
		for _, idx := range rest {
			data, err := p.Local(set, scale, seed, input, keys[idx])
			if err != nil {
				fail(idx, err)
				break
			}
			results[idx] = data
			done++
			p.progress("[%d/%d] %s/%s done locally (fallback)", done, n, set, keys[idx])
		}
	}
	if failErr != nil {
		return nil, fmt.Errorf("dist: job %s/%s: %w", set, keys[failIdx], failErr)
	}
	return results, nil
}
