// Producer pool: runs an elastic fleet of three disaggregated
// preprocessing producers, trains against them through a 1-tenant
// preprocessing service, kills one producer mid-run via a scenario
// event and brings it back two iterations later — the §5/§8
// elasticity story end to end.
// The run's results are identical to a single-producer run; only the
// pool metrics (failovers, fetch latency) show the churn.
//
//	go run ./examples/producerpool
package main

import (
	"fmt"
	"log"

	"disttrain"
)

func main() {
	spec, corpus, err := disttrain.NewSpec(disttrain.MLLM9B(), 4, 16)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := disttrain.PlanDistTrain(spec)
	if err != nil {
		log.Fatal(err)
	}
	cfg := disttrain.NewTrainConfig(spec, plan, corpus)

	// Three in-process producers, each an independent stateless TCP
	// server — one laptop playing the paper's elastic CPU-node fleet.
	pcfg, err := disttrain.PreprocessConfigFor(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := disttrain.StartProducerFleet(pcfg, 3)
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()
	fmt.Println("producer fleet:")
	for i, addr := range fleet.Addrs() {
		fmt.Printf("  producer %d on %s\n", i, addr)
	}

	// The consumer side: a preprocessing service with one tenant at
	// the plan's backbone DP width — deterministic (iteration, rank)
	// assignment, health tracking, failover, bounded admission.
	stats := &disttrain.PoolMetrics{}
	svc, err := disttrain.NewPreprocessService(disttrain.PreprocessServiceConfig{
		Addrs: fleet.Addrs(),
		Stats: stats,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	tenant, err := svc.Register(disttrain.PreprocessTenantConfig{Name: "example", DP: pcfg.DPSize})
	if err != nil {
		log.Fatal(err)
	}
	disttrain.UsePreprocessPool(&cfg, tenant)

	// Producer 1 dies at iteration 2 and rejoins at iteration 4; the
	// fleet implements ProducerControl, so the events act on real TCP
	// servers.
	sc, err := disttrain.ParseScenario(
		"producer-fail:iter=2,producer=1; producer-join:iter=4,producer=1")
	if err != nil {
		log.Fatal(err)
	}
	cfg.Scenario = sc
	cfg.ProducerControl = fleet

	fmt.Println("\ntraining 6 iterations (producer 1 dies at iter 2, rejoins at iter 4):")
	res, err := disttrain.Train(cfg, 6)
	if err != nil {
		log.Fatal(err)
	}
	for _, it := range res.Iterations {
		fmt.Printf("  iter %d: %7.3fs  stall %5.1fms  MFU %4.1f%%\n",
			it.Index, it.Breakdown.Total(), it.Breakdown.PreprocessStall*1e3, 100*it.MFU)
	}
	snap := stats.Snapshot()
	fmt.Printf("\npool: %s\n", snap)
	fmt.Println("\nevery batch arrived despite the churn — failovers, not failures.")
}
