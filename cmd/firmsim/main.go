// Command firmsim runs an ad-hoc simulation: pick a benchmark application,
// a load level, and a resource-management policy, and report latency and
// SLO statistics.
//
//	firmsim -app social-network -rps 250 -policy firm -duration 60 -campaign
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"firm/internal/experiments"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/topology"
	"firm/internal/workload"
)

func main() {
	var (
		appName  = flag.String("app", "social-network", "benchmark: "+strings.Join(topology.Names(), "|"))
		rps      = flag.Float64("rps", 200, "request rate (req/s)")
		policy   = flag.String("policy", "firm", "policy: none|firm|firm-multi|hpa|aimd")
		duration = flag.Float64("duration", 60, "simulated seconds")
		campaign = flag.Bool("campaign", false, "enable randomized anomaly campaign")
		seed     = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()

	// A NaN or infinite rate would make every arrival gap zero; a NaN or
	// infinite duration has no simulated end.
	if math.IsNaN(*rps) || math.IsInf(*rps, 0) || *rps < 0 {
		fmt.Fprintf(os.Stderr, "-rps must be a finite, non-negative rate, got %v\n", *rps)
		os.Exit(2)
	}
	if math.IsNaN(*duration) || math.IsInf(*duration, 0) || *duration <= 0 {
		fmt.Fprintf(os.Stderr, "-duration must be a finite, positive number of seconds, got %v\n", *duration)
		os.Exit(2)
	}

	spec, err := topology.ByName(*appName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var pol experiments.Policy
	switch *policy {
	case "none":
		pol = experiments.PolicyNone
	case "firm":
		pol = experiments.PolicyFIRMSingle
	case "firm-multi":
		pol = experiments.PolicyFIRMMulti
	case "hpa":
		pol = experiments.PolicyHPA
	case "aimd":
		pol = experiments.PolicyAIMD
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
		os.Exit(2)
	}

	st, err := experiments.Run(experiments.RunOpts{
		Seed:     *seed,
		Spec:     spec,
		Pattern:  workload.Constant{RPS: *rps},
		Duration: sim.FromSeconds(*duration),
		Policy:   pol,
		Training: pol == experiments.PolicyFIRMSingle || pol == experiments.PolicyFIRMMulti,
		Campaign: *campaign,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("app=%s policy=%v rps=%.0f duration=%.0fs campaign=%v\n",
		spec.Name, st.Policy, *rps, *duration, *campaign)
	fmt.Printf("SLO: %.1fms\n", st.SLOms)
	fmt.Printf("completed=%d dropped=%d violations=%d (%.2f%%)\n",
		st.Completed, st.Dropped, st.Violations, 100*st.ViolationRate())
	if len(st.Latencies) > 0 {
		fmt.Printf("latency ms: p50=%.1f p90=%.1f p99=%.1f p99.9=%.1f\n",
			stats.Percentile(st.Latencies, 50), stats.Percentile(st.Latencies, 90),
			stats.Percentile(st.Latencies, 99), stats.Percentile(st.Latencies, 99.9))
	}
	if len(st.CPULimitSamples) > 0 {
		fmt.Printf("requested CPU limit: mean=%.0f%% p99=%.0f%% (per container)\n",
			stats.Mean(st.CPULimitSamples), stats.Percentile(st.CPULimitSamples, 99))
	}
	if len(st.MitigationTimes) > 0 {
		fmt.Printf("mitigations: %d, mean %.1fs\n", len(st.MitigationTimes), stats.Mean(st.MitigationTimes))
	}
}
