// Anomaly-injection and localization demo: run the §3.6 injector against
// Media Service one anomaly type at a time and report how accurately the
// critical-component extractor (critical paths + SVM) localizes each victim.
//
//	go run ./examples/anomalyinjection
package main

import (
	"fmt"
	"log"

	"firm/internal/detect"
	"firm/internal/harness"
	"firm/internal/injector"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/tracedb"
	"firm/internal/workload"
)

func main() {
	b, err := harness.New(harness.Options{
		Seed:      3,
		Spec:      topology.MediaService(),
		SLOMargin: 1.6,
	})
	if err != nil {
		log.Fatal(err)
	}
	ext := b.NewExtractor()
	b.AttachWorkload(workload.Constant{RPS: 150})
	b.Eng.RunFor(5 * sim.Second)

	kinds := []injector.Kind{
		injector.CPUStress, injector.MemBWStress, injector.LLCStress,
		injector.IOStress, injector.NetBWStress, injector.NetworkDelay,
	}
	targets := b.Containers()
	r := sim.Stream(3, "demo")
	hits, events := 0, 0

	fmt.Println("injecting one anomaly at a time into media-service and localizing:")
	for i := 0; i < 12; i++ {
		kind := kinds[i%len(kinds)]
		victim := targets[r.Intn(len(targets))]
		t0 := b.Eng.Now()
		b.Injector.Inject(injector.Injection{
			Kind: kind, Target: victim, Intensity: 0.9, Duration: 6 * sim.Second,
		})
		b.Eng.RunFor(7 * sim.Second)

		window := b.DB.Select(tracedb.Query{Since: t0 - 2*sim.Second, IncludeDrop: true})
		if !detect.Violated(window, b.App.SLO) {
			fmt.Printf("  %-10s on %-28s absorbed (no SLO violation)\n", kind, victim.Name)
			b.Eng.RunFor(3 * sim.Second)
			continue
		}
		events++
		var flagged []string
		hit := false
		for _, c := range ext.Candidates(window) {
			// Keep the extractor learning online from ground truth.
			_ = ext.Train(c, c.Instance == victim.ID)
			if c.Critical {
				flagged = append(flagged, b.Cluster.InstanceName(c.Instance))
				if c.Instance == victim.ID {
					hit = true
				}
			}
		}
		if hit {
			hits++
		}
		fmt.Printf("  %-10s on %-28s flagged %v hit=%v\n", kind, victim.Name, flagged, hit)
		b.Eng.RunFor(3 * sim.Second)
	}
	if events > 0 {
		fmt.Printf("\nlocalization: %d/%d violation events hit the injected victim\n", hits, events)
	}
}
