// Quickstart: deploy the Hotel Reservation benchmark on a simulated
// cluster, drive it with load, inject one memory-bandwidth anomaly, and let
// FIRM detect, localize, and mitigate the SLO violation.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"firm/internal/core"
	"firm/internal/harness"
	"firm/internal/injector"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/topology"
	"firm/internal/tracedb"
	"firm/internal/workload"
)

func main() {
	// Build a testbed: 15-node cluster (9 Intel + 6 IBM class), the Hotel
	// Reservation app (15 microservices), tracing, telemetry; calibrate the
	// end-to-end SLO as uncontended-P99 x 1.6.
	b, err := harness.New(harness.Options{
		Seed:      1,
		Spec:      topology.HotelReservation(),
		SLOMargin: 1.6,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed %s: %d services, SLO = %.1fms\n",
		b.App.Spec.Name, b.App.Spec.NumServices(), b.App.SLO.Millis())

	// Open-loop load at 150 req/s across the endpoint mix.
	b.AttachWorkload(workload.Constant{RPS: 150})

	// Attach FIRM: SVM-based localization + DDPG resource estimator.
	cfg := core.DefaultConfig()
	cfg.Training = true // learn online in this demo
	ctl := b.AttachFIRM(cfg, harness.SharedAgent(1), nil)

	// Warm up, then inject a memory-bandwidth anomaly into the rate
	// service's memcached tier (an iBench-style stressor in the container).
	b.Eng.RunFor(10 * sim.Second)
	victim := b.Cluster.ReplicaSet("rate-memcached").Containers()[0]
	fmt.Printf("injecting mem-BW anomaly into %s for 20s...\n", victim.Name)
	b.Injector.Inject(injector.Injection{
		Kind:      injector.MemBWStress,
		Target:    victim,
		Intensity: 1.0,
		Duration:  20 * sim.Second,
	})
	b.Eng.RunFor(40 * sim.Second)

	// Report.
	lats := b.DB.Latencies(tracedb.Query{})
	fmt.Printf("\nprocessed %d requests (%d dropped, %d SLO violations)\n",
		b.App.Completed, b.App.Dropped, b.App.Violations)
	fmt.Printf("latency: p50=%.1fms p99=%.1fms\n",
		stats.Percentile(lats, 50), stats.Percentile(lats, 99))
	fmt.Printf("FIRM: %d control ticks, %d mitigation actions\n", ctl.Ticks, ctl.Actions)
	if n := len(ctl.Mitigations); n > 0 {
		fmt.Printf("mitigations: %d, mean time to clear = %.1fs\n", n, ctl.MeanMitigationTime())
	}
	fmt.Printf("victim limits now: %v\n", victim.Limits())
}
