package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"firm/internal/dist"
	"firm/internal/experiments"
	"firm/internal/report"
)

// runWorker serves the distributed-campaign worker until killed. The worker
// executes any registered job set — whole experiments for the campaign
// coordinator, fine-grained sweep cells for nested dispatch — under x, this
// process's own -parallel/-shards settings (which, like everything
// machine-local, never affect results).
func runWorker(x experiments.Exec, addr string) int {
	if err := dist.Serve(addr, experiments.JobSets(), x.RunJob); err != nil {
		fmt.Fprintf(os.Stderr, "firmbench: -serve: %v\n", err)
		return 1
	}
	return 0
}

// runDistributed runs the campaign as coordinator. With several
// experiments (or one without a registered fine-grained set), the selected
// ids become the job pool: internal/dist dispatches whole experiments
// across the workers, requeueing on worker failure and falling back to
// local execution when no workers remain, and the returned payloads merge
// in declaration order. A single experiment with a registered job set
// instead runs in-process with the pool installed as dispatcher, fanning
// its individual sweep cells across the workers — the finer granularity is
// worth it exactly when there is only one experiment to spread. Either
// way stdout is byte-identical to a local run, and the -json file differs
// only in per-report worker provenance, which -diff reports as a note. x
// sizes what runs in this process: the fine mode's setup and merge, and
// the local fallback of both modes.
func runDistributed(x experiments.Exec, hosts, selected []string, sc experiments.Scale, seed int64, jsonOut string, timeout time.Duration, quiet bool) int {
	pool := dist.NewPool(hosts, x.RunJob)
	pool.Timeout = timeout
	if !quiet {
		pool.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}
	if len(selected) == 1 && experiments.HasJobSet(selected[0]) {
		return runDistributedFine(x, pool, selected[0], sc, seed, jsonOut)
	}

	start := time.Now()
	results, runErr := pool.Run(experiments.ExperimentSet, sc.Name, seed, selected)

	textOut := io.Writer(os.Stdout)
	if jsonOut == "-" {
		textOut = os.Stderr
	}
	campaign := &report.Campaign{Tool: "firmbench", Scale: sc.Name, Seed: seed}
	for i, id := range selected {
		if results[i].Data == nil {
			if runErr == nil {
				// The pool claims success but produced no bytes for this
				// job — never report a truncated campaign as complete.
				runErr = fmt.Errorf("%s: pool returned no result", id)
			}
			break // aborted campaign: print the completed prefix only
		}
		var payload experiments.ExperimentPayload
		if err := json.Unmarshal(results[i].Data, &payload); err != nil {
			fmt.Fprintf(os.Stderr, "%s: decode worker payload: %v\n", id, err)
			return 1
		}
		var rep *report.Report
		if jsonOut != "" {
			rep = &report.Report{}
			if err := json.Unmarshal(payload.Report, rep); err != nil {
				fmt.Fprintf(os.Stderr, "%s: decode report record: %v\n", id, err)
				return 1
			}
		}
		emitReport(textOut, campaign, id, sc.Name, seed, payload.Text, rep, results[i].Worker)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "%v\n", runErr)
		return 1
	}
	if jsonOut != "" {
		if err := writeCampaign(jsonOut, campaign); err != nil {
			fmt.Fprintf(os.Stderr, "write -json: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "(distributed campaign: %d experiment(s), %d worker(s), %.1fs)\n",
		len(selected), len(hosts), time.Since(start).Seconds())
	return 0
}

// runDistributedFine runs one fan-out experiment on the coordinator with
// its registered job set dispatched cell by cell across the pool: setup
// and merge happen in-process, only the independent simulations travel.
// The report merges with worker slot 0 — the record was assembled here —
// matching the local file byte for byte.
func runDistributedFine(x experiments.Exec, pool *dist.Pool, id string, sc experiments.Scale, seed int64, jsonOut string) int {
	x.Remote = pool
	start := time.Now()
	textOut := io.Writer(os.Stdout)
	if jsonOut == "-" {
		textOut = os.Stderr
	}
	fn, _ := experiments.Get(id)
	res, err := fn(x, sc, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
		return 1
	}
	campaign := &report.Campaign{Tool: "firmbench", Scale: sc.Name, Seed: seed}
	var rep *report.Report
	if jsonOut != "" {
		rep = res.Report()
	}
	emitReport(textOut, campaign, id, sc.Name, seed, res.String(), rep, 0)
	if jsonOut != "" {
		if err := writeCampaign(jsonOut, campaign); err != nil {
			fmt.Fprintf(os.Stderr, "write -json: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "(distributed %s: cell-level dispatch over %d worker(s), %.1fs)\n",
		id, len(pool.Hosts), time.Since(start).Seconds())
	return 0
}
