// Package dist fans a firmbench campaign's cells across machines.
//
// FIRM's evaluation is a pool of independent, bit-reproducible jobs: every
// experiment's fan-out is a named job set of cells (internal/experiments'
// declared table), and the cell is the one unit that crosses the wire. Distribution therefore needs no result coordination
// at all: a job is a (set, key) reference plus the set's input, any
// machine rebuilds the identical job from the registered set, the
// campaign's (scale, seed) and that input, and the seed each job runs
// under derives from the campaign seed and the job key, never from
// placement. Where a job runs, how late it runs, and how many times it was
// retried are therefore invisible in the results; only wall-clock changes.
// The coordinator runs the campaign exactly as a local run does — training
// and merging happen there — and results come back in declaration order,
// so a distributed campaign's stdout and JSON are byte-identical to a
// single-machine run.
//
// The protocol is deliberately small: HTTP+JSON, one POST per job.
//
//	POST /run   {"set":..,"key":..,"scale":..,"seed":..,"input":..}
//	  -> 200 {"key":..,"result":<JSON>}   job executed
//	  -> 200 {"key":..,"error":"..."}     job executed and failed (aborts
//	                                      the campaign, like a local failure)
//	  -> 400 / 413                        malformed, unknown-field or
//	                                      oversized (> 1 MiB) request body
//	  transport error / non-200           worker failure (job is requeued)
//	GET /healthz -> {"ok":true,"sets":[..]}
//
// input is the set's job input in wire form (a trained agent's weights for
// the sets that evaluate one) and is omitted for sets that take none. The
// coordinator never sends a body over the bound: such a job fails as a job
// error naming its set, key and size.
//
// Dispatch is pull-shaped in the spirit of distributed join-the-idle-queue:
// the coordinator keeps one outstanding job per worker, so each worker
// implicitly "pulls" its next job the moment it finishes the previous one,
// and fast workers drain more of the pool than slow ones without any cost
// model. A worker that fails a transport round-trip is dropped for the rest
// of the campaign and its job is requeued; when no workers remain, the
// coordinator executes the remaining jobs itself (the local-execution
// fallback), so a campaign always completes with exactly the bytes a local
// run would have produced.
package dist

import (
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"time"
)

// RunFunc executes one job on this machine: it resolves the (set, key)
// reference against the process's job-set registry, rebuilds the job from
// (scale, seed, input) and runs it under the process's own execution
// settings (experiments.Exec.RunJob, in firmbench). A worker serves it over
// HTTP; a coordinator falls back to it when no worker is left.
type RunFunc func(set, scale string, seed int64, input []byte, key string) ([]byte, error)

// maxRequestBytes bounds a /run body. A JobRequest is four short fields
// plus its set's input; the largest input any set sends is fig11b's
// checkpoints at full scale, ten agent snapshots of ≈ 52 KB each on the
// wire. Anything over the bound is a confused or hostile peer.
const maxRequestBytes = 1 << 20

// JobRequest identifies one job of a campaign: a (set, key) reference into
// the executing process's job-set registry plus the campaign configuration
// and set input it rebuilds the job list from. Input is a JSON value (the
// set's wire encoding, like JobResponse.Result) and reaches the RunFunc
// byte for byte.
type JobRequest struct {
	Set   string          `json:"set"`
	Key   string          `json:"key"`
	Scale string          `json:"scale"`
	Seed  int64           `json:"seed"`
	Input json.RawMessage `json:"input,omitempty"`
}

// JobResponse carries one executed job's outcome. Exactly one of Result and
// Error is set: Error reports that the job itself failed (an application
// error that aborts the campaign, exactly as it would locally) — worker
// failures are transport-level and carry no JobResponse at all.
type JobResponse struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// health is the /healthz body.
type health struct {
	OK   bool     `json:"ok"`
	Sets []string `json:"sets"`
}

// Handler returns the worker's HTTP handler: POST /run executes jobs with
// run, GET /healthz answers readiness probes and names the job sets the
// worker knows. `firmbench -serve` mounts it on a plain http.Server; tests
// mount it on httptest servers.
func Handler(sets []string, run RunFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, health{OK: true, Sets: sets})
	})
	mux.HandleFunc("/run", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		dec.DisallowUnknownFields()
		var req JobRequest
		if err := dec.Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, "bad request: "+err.Error(), status)
			return
		}
		writeJSON(w, runJob(run, req))
	})
	return mux
}

// runJob executes one job. All failures below the transport are job
// errors: an unknown set or key means the two processes disagree about the
// campaign (mismatched binaries, say), which retrying on another worker
// cannot fix.
func runJob(run RunFunc, req JobRequest) JobResponse {
	start := time.Now()
	data, err := run(req.Set, req.Scale, req.Seed, req.Input, req.Key)
	if err != nil {
		log.Printf("dist: job %s/%s failed after %.1fs: %v", req.Set, req.Key, time.Since(start).Seconds(), err)
		return JobResponse{Key: req.Key, Error: err.Error()}
	}
	log.Printf("dist: job %s/%s done in %.1fs", req.Set, req.Key, time.Since(start).Seconds())
	return JobResponse{Key: req.Key, Result: data}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("dist: write response: %v", err)
	}
}

// Serve runs a worker on addr (":8701" or "host:port") until the listener
// fails. It logs the job sets it can execute so operators can eyeball
// binary mismatches across the fleet.
func Serve(addr string, sets []string, run RunFunc) error {
	log.Printf("dist: worker listening on %s (job sets: %v)", addr, sets)
	return (&http.Server{Addr: addr, Handler: Handler(sets, run)}).ListenAndServe()
}
