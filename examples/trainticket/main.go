// Train-Ticket RL training demo: train a one-for-all DDPG agent on the
// 41-service Train-Ticket benchmark (the paper's §4.3 protocol), then
// transfer it to per-service agents and compare mitigation behaviour —
// the transfer-learning path of §3.4.
//
//	go run ./examples/trainticket
package main

import (
	"fmt"
	"log"

	"firm/internal/experiments"
	"firm/internal/runner"
	"firm/internal/topology"
)

func main() {
	spec := topology.TrainTicket()
	fmt.Printf("training one-for-all DDPG agent on %s (%d services)...\n",
		spec.Name, spec.NumServices())

	pool := runner.NewPool(0) // rollout actors on every core; results do not depend on it
	single, err := experiments.Train(experiments.TrainOpts{
		Pool:            pool,
		Seed:            11,
		Spec:            spec,
		Episodes:        24,
		Variant:         experiments.OneForAll,
		CheckpointEvery: 24,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("episode rewards (smoothed):")
	for i := 0; i < len(single.Smoothed); i += 4 {
		fmt.Printf("  ep %2d: %.1f\n", i+1, single.Smoothed[i])
	}

	fmt.Println("\ntransferring to per-service agents and fine-tuning...")
	base := single.Provider.Agents()[0]
	trans, err := experiments.Train(experiments.TrainOpts{
		Pool:     pool,
		Seed:     11,
		Spec:     spec,
		Episodes: 8,
		Variant:  experiments.Transferred,
		Base:     base,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transferred agents: %d specialized services, first-episode reward %.1f "+
		"(warm start: no cold exploration phase)\n",
		len(trans.Provider.Agents()), trans.Rewards[0])
}
