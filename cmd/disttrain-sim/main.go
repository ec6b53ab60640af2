// Command disttrain-sim runs end-to-end training iterations under a
// chosen orchestration strategy and reports MFU, throughput and the
// per-iteration time breakdown. Scenario injection perturbs the run
// (stragglers, congestion, preprocessing degradation, node failures
// with checkpoint-restore recovery), and -trace captures the full
// execution timeline in Chrome trace format.
//
// The batch front-end can source microbatches from a live TCP producer
// pool: -preproc points at running disttrain-preprocd instances, and
// -local-producers runs an in-process fleet — which scenario
// producer-fail / producer-join events can kill and restore mid-run.
//
// Examples:
//
//	disttrain-sim -model 15b -nodes 12 -batch 64 -iters 5 -strategy disttrain
//	disttrain-sim -iters 8 -checkpoint-every 2 \
//	    -scenario 'straggler:iters=2-4,rank=0,factor=3; failure:iter=6' \
//	    -trace timeline.json
//	disttrain-sim -iters 6 -local-producers 3 \
//	    -scenario 'producer-fail:iter=2,producer=1; producer-join:iter=4,producer=1'
//	disttrain-sim -iters 6 -preproc 127.0.0.1:7420,127.0.0.1:7421
//	disttrain-sim -nodes 4 -batch 32 -iters 14 -adapt \
//	    -scenario 'workload-shift:iters=2-13,factor=3'
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"disttrain"
	"disttrain/internal/prof"
)

func main() {
	var (
		modelName = flag.String("model", "9b", "model preset: 9b, 15b or 72b")
		nodes     = flag.Int("nodes", 12, "cluster size in 8-GPU nodes")
		batch     = flag.Int("batch", 128, "global batch size")
		iters     = flag.Int("iters", 3, "iterations to run")
		strategy  = flag.String("strategy", "disttrain", "disttrain, megatron or distmm")
		freeze    = flag.String("freeze", "full", "freeze setting (§7.3)")
		noReorder = flag.Bool("no-reorder", false, "disable dual-level data reordering")
		colocate  = flag.Bool("colocate-preprocess", false, "co-locate preprocessing with training")
		ckpt      = flag.Int("checkpoint-every", 0, "checkpoint interval in iterations (0 = off)")
		workers   = flag.Int("workers", 0, "per-DP-rank pipeline worker pool size (0 = GOMAXPROCS)")
		scenSpec  = flag.String("scenario", "", "scenario injection, e.g. 'straggler:iters=2-5,rank=0,factor=2.5; failure:iter=6', 'workload-shift:iters=4-9,factor=3', 'producer-fail:iter=2,producer=1' or 'random-stragglers:seed=7,ranks=8,prob=0.3,max=3'")
		adapt     = flag.Bool("adapt", false, "enable the re-planning controller: drift re-runs the §4.3 orchestrator mid-run and switches plans at iteration boundaries")
		replanThr = flag.Float64("replan-threshold", 0, "drift score that triggers a re-plan (0 = default 0.25; used with -adapt)")
		traceFile = flag.String("trace", "", "write the run's Chrome-trace-format timeline to this file")
		preproc   = flag.String("preproc", "", "comma-separated producer addresses: source microbatches from a live preprocessing pool")
		localProd = flag.Int("local-producers", 0, "run N in-process preprocessing producers and source microbatches from them")
	)
	profile := prof.Register(flag.CommandLine)
	flag.Parse()

	m, err := modelByName(*modelName)
	if err != nil {
		fatal(err)
	}
	fr, err := freezeByName(*freeze)
	if err != nil {
		fatal(err)
	}
	spec, corpus, err := disttrain.NewSpecFrozen(m, *nodes, *batch, fr)
	if err != nil {
		fatal(err)
	}

	var plan *disttrain.Plan
	var cfg disttrain.TrainConfig
	switch *strategy {
	case "disttrain":
		plan, err = disttrain.PlanDistTrain(spec)
		if err == nil {
			cfg = disttrain.NewTrainConfig(spec, plan, corpus)
		}
	case "megatron":
		plan, err = disttrain.PlanMegatron(spec)
		if err == nil {
			cfg = disttrain.NewMegatronTrainConfig(spec, plan, corpus)
		}
	case "distmm":
		plan, err = disttrain.PlanDistMM(spec)
		if err == nil {
			cfg = disttrain.NewTrainConfig(spec, plan, corpus)
		}
	default:
		err = fmt.Errorf("unknown strategy %q", *strategy)
	}
	if err != nil {
		fatal(err)
	}
	if *noReorder {
		cfg.Reorder = false
	}
	if *colocate {
		cfg.DisaggregatedPreprocess = false
	}
	cfg.CheckpointEvery = *ckpt
	cfg.Parallelism = *workers
	if *scenSpec != "" {
		sc, err := disttrain.ParseScenario(*scenSpec)
		if err != nil {
			fatal(err)
		}
		cfg.Scenario = sc
	}
	var trace *disttrain.Trace
	if *traceFile != "" {
		trace = disttrain.NewTrace()
		cfg.Trace = trace
	}

	// Live disaggregated preprocessing: point the batch front-end at a
	// producer pool — external (-preproc) or in-process
	// (-local-producers, controllable by producer-fail/join events).
	var poolStats *disttrain.PoolMetrics
	if *preproc != "" || *localProd > 0 {
		if *preproc != "" && *localProd > 0 {
			fatal(fmt.Errorf("-preproc and -local-producers are mutually exclusive"))
		}
		if *colocate {
			fatal(fmt.Errorf("-colocate-preprocess cannot be combined with a live producer pool"))
		}
		pcfg, err := disttrain.PreprocessConfigFor(cfg)
		if err != nil {
			fatal(err)
		}
		var addrs []string
		if *localProd > 0 {
			fleet, err := disttrain.StartProducerFleet(pcfg, *localProd)
			if err != nil {
				fatal(err)
			}
			defer fleet.Close()
			cfg.ProducerControl = fleet
			addrs = fleet.Addrs()
			fmt.Printf("local producer fleet: %s\n", strings.Join(addrs, ", "))
		} else {
			for _, a := range strings.Split(*preproc, ",") {
				if a = strings.TrimSpace(a); a != "" {
					addrs = append(addrs, a)
				}
			}
		}
		// One job is a 1-tenant service at the plan's backbone DP
		// width; the producers split each batch at that width, not at
		// their own -dp.
		poolStats = &disttrain.PoolMetrics{}
		svc, err := disttrain.NewPreprocessService(disttrain.PreprocessServiceConfig{
			Addrs: addrs,
			Stats: poolStats,
		})
		if err != nil {
			fatal(err)
		}
		defer svc.Close()
		tenant, err := svc.Register(disttrain.PreprocessTenantConfig{Name: "sim", DP: pcfg.DPSize})
		if err != nil {
			fatal(err)
		}
		disttrain.UsePreprocessPool(&cfg, tenant)
		cfg.PoolStats = poolStats
	}

	// Adaptive re-planning: the controller watches drift and re-runs
	// the orchestrator mid-run, switching plans at iteration
	// boundaries via costed reconfigurations.
	var ctrl *disttrain.ReplanController
	if *adapt {
		var err error
		ctrl, err = disttrain.NewReplanController(disttrain.ControllerConfig{
			Train:       cfg,
			Threshold:   *replanThr,
			Parallelism: *workers,
		})
		if err != nil {
			fatal(err)
		}
		disttrain.UseReplanController(&cfg, ctrl)
	}

	fmt.Println(plan)
	stopProfile, err := profile.Start()
	if err != nil {
		fatal(err)
	}
	res, err := disttrain.Train(cfg, *iters)
	if perr := stopProfile(); perr != nil {
		fatal(perr)
	}
	if err != nil {
		fatal(err)
	}
	for _, it := range res.Iterations {
		mark := " "
		if it.Perturbed {
			mark = "!"
		}
		fmt.Printf("iter %2d%s %7.3fs  [%s]  bubble %4.1f%%  straggler spread %4.1f%%  MFU %4.1f%%\n",
			it.Index, mark, it.Breakdown.Total(), it.Breakdown, 100*it.BubbleFrac,
			100*it.StragglerSpread, 100*it.MFU)
	}
	for _, rec := range res.Recoveries {
		fmt.Printf("failure at iter %d: resumed from %d after %.2fs downtime\n",
			rec.FailedAt, rec.ResumedFrom, rec.Downtime)
	}
	for _, rp := range res.Replans {
		fmt.Printf("replan before iter %d -> %s (%.2fs reconfiguration): %s\n",
			rp.AppliedAt, rp.Strategy, rp.Downtime, rp.Reason)
	}
	fmt.Printf("\n%s on %d GPUs: mean iter %.3fs, MFU %.1f%%, %.2fM tokens/s",
		res.Strategy, res.GPUs, res.MeanIterTime, 100*res.MFU, res.TokensPerSec/1e6)
	if res.CheckpointsSaved > 0 {
		fmt.Printf(", %d checkpoints saved", res.CheckpointsSaved)
	}
	if res.Failures > 0 {
		fmt.Printf(", %d failures survived (%d iters re-executed, %.2fs downtime)",
			res.Failures, res.ReExecutedIterations, res.DowntimeSeconds)
	}
	if res.PlanSwitches > 0 {
		fmt.Printf(", %d plan switches", res.PlanSwitches)
	}
	fmt.Println()
	if ctrl != nil {
		for _, rep := range ctrl.Reports() {
			if rep.Triggered {
				fmt.Printf("drift at iter %d: score %.2f (cost %.2f, spread %.2f, pool %.2f) -> re-plan\n",
					rep.Iter, rep.Score, rep.CostDrift, rep.SpreadDrift, rep.PoolDrift)
			}
		}
	}
	if poolStats != nil {
		fmt.Printf("producer pool: %s\n", poolStats.Snapshot())
	}

	if trace != nil {
		// Atomic write (temp file + rename): a failure mid-encode must
		// never leave a truncated timeline at the destination.
		if err := trace.WriteJSONFile(*traceFile); err != nil {
			fatal(err)
		}
		fmt.Printf("timeline: %s (%d events; open in chrome://tracing or Perfetto)\n", *traceFile, trace.Len())
	}
}

func modelByName(name string) (disttrain.MLLM, error) {
	switch strings.ToLower(name) {
	case "9b", "mllm-9b":
		return disttrain.MLLM9B(), nil
	case "15b", "mllm-15b":
		return disttrain.MLLM15B(), nil
	case "72b", "mllm-72b":
		return disttrain.MLLM72B(), nil
	}
	return disttrain.MLLM{}, fmt.Errorf("unknown model %q (want 9b, 15b or 72b)", name)
}

func freezeByName(name string) (disttrain.FreezeSpec, error) {
	for _, f := range []disttrain.FreezeSpec{
		disttrain.FullTraining, disttrain.AllFrozen, disttrain.EncoderOnly,
		disttrain.LLMOnly, disttrain.GeneratorOnly,
	} {
		if f.Name == name {
			return f, nil
		}
	}
	return disttrain.FreezeSpec{}, fmt.Errorf("unknown freeze setting %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "disttrain-sim:", err)
	os.Exit(1)
}
