package main

import (
	"fmt"
	"os"
	"time"

	"firm/internal/dist"
	"firm/internal/experiments"
)

// runWorker serves the distributed-campaign worker until killed. The worker
// executes any registered job set's cells under x, this process's own
// -parallel/-shards settings (which, like everything machine-local, never
// affect results).
func runWorker(x experiments.Exec, addr string) int {
	if err := dist.Serve(addr, experiments.JobSets(), x.RunJob); err != nil {
		fmt.Fprintf(os.Stderr, "firmbench: -serve: %v\n", err)
		return 1
	}
	return 0
}

// runDistributed runs the campaign as coordinator: it is the local
// campaign with internal/dist's worker pool installed as x.Remote, so
// every experiment's cells travel to the workers while training, merging
// and rendering stay here. The pool requeues on worker failure and falls
// back to x (without the pool) when no workers remain, so stdout and the
// -json file are byte-identical to a local run.
func runDistributed(x experiments.Exec, hosts, selected []string, sc experiments.Scale, seed int64, jsonOut string, timeout time.Duration, quiet bool) int {
	pool := dist.NewPool(hosts, x.RunJob)
	pool.Timeout = timeout
	if !quiet {
		pool.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}
	x.Remote = pool
	return runCampaign(x, selected, sc, seed, jsonOut)
}
