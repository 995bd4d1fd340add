// Social Network under diurnal load with a randomized anomaly campaign:
// FIRM versus the Kubernetes-HPA baseline, side by side. Reproduces the
// flavor of the paper's Fig. 1/Fig. 10 on one screen.
//
//	go run ./examples/socialnetwork
package main

import (
	"fmt"
	"log"

	"firm/internal/core"
	"firm/internal/experiments"
	"firm/internal/harness"
	"firm/internal/injector"
	"firm/internal/runner"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/topology"
	"firm/internal/tracedb"
	"firm/internal/workload"
)

type outcome struct {
	name       string
	p50, p99   float64
	violations uint64
	completed  uint64
	dropped    uint64
	reqCPU     float64
}

func run(name string, seed int64, attach func(*harness.Bench)) outcome {
	b, err := harness.New(harness.Options{
		Seed:      seed,
		Spec:      topology.SocialNetwork(),
		SLOMargin: 1.6,
	})
	if err != nil {
		log.Fatal(err)
	}
	attach(b)
	// Steady 250 req/s with the randomized anomaly campaign: localized
	// shared-resource contention is the regime FIRM targets (load-driven
	// global slowdowns are the autoscaler's home turf instead).
	b.AttachWorkload(workload.Constant{RPS: 250})
	camp := injector.DefaultCampaign(b.Injector, b.Containers())
	camp.Start()
	b.Eng.RunFor(2 * sim.Minute)
	camp.Stop()
	b.Eng.RunFor(10 * sim.Second)

	lats := b.DB.Latencies(tracedb.Query{})
	var cpu float64
	for _, c := range b.Containers() {
		cpu += c.Limits()[0]
	}
	return outcome{
		name:       name,
		p50:        stats.Percentile(lats, 50),
		p99:        stats.Percentile(lats, 99),
		violations: b.App.Violations,
		completed:  b.App.Completed,
		dropped:    b.App.Dropped,
		reqCPU:     cpu,
	}
}

func main() {
	fmt.Println("Social Network, 250 req/s + anomaly campaign, 2 minutes")
	fmt.Println("training a FIRM agent on Train-Ticket first (the paper's §4.3 protocol)...")
	trained, err := experiments.Train(experiments.TrainOpts{
		Seed: 7, Spec: topology.TrainTicket(), Episodes: 6,
		Variant: experiments.OneForAll,
		Pool:    runner.NewPool(0), // rollout actors on every core; results do not depend on it
	})
	if err != nil {
		log.Fatal(err)
	}
	agent := trained.Provider.Agents()[0]
	fmt.Println()

	firm := run("FIRM", 7, func(b *harness.Bench) {
		cfg := core.DefaultConfig()
		cfg.IdleReclaim = 0 // compare SLO behaviour at equal provisioning
		// Every service shares the trained base — the single-RL
		// configuration of §4.4.
		b.AttachFIRM(cfg, core.SharedAgent{A: agent}, nil)
	})
	hpa := run("K8S autoscaling", 7, func(b *harness.Bench) {
		b.AttachHPA()
	})

	fmt.Printf("%-16s %8s %8s %10s %8s %10s\n",
		"policy", "p50(ms)", "p99(ms)", "SLO viol.", "drops", "req. CPU")
	for _, o := range []outcome{firm, hpa} {
		fmt.Printf("%-16s %8.1f %8.1f %9.1f%% %8d %9.0fc\n",
			o.name, o.p50, o.p99,
			100*float64(o.violations)/float64(o.completed),
			o.dropped, o.reqCPU)
	}
	if firm.p99 < hpa.p99 {
		fmt.Printf("\nFIRM cut tail latency %.1fx vs the K8s autoscaler.\n", hpa.p99/firm.p99)
	}
}
