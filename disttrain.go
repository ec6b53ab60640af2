// Package disttrain is a Go reproduction of "DistTrain: Addressing
// Model and Data Heterogeneity with Disaggregated Training for
// Multimodal Large Language Models" (Zhang et al., SIGCOMM 2025).
//
// DistTrain trains multimodal LLMs — modality encoder, LLM backbone and
// modality generator — with two disaggregation techniques:
//
//   - disaggregated model orchestration (§4) gives each module its own
//     GPU allocation and parallelism strategy, chosen by an adaptive
//     algorithm that solves the per-strategy convex subproblems exactly;
//   - disaggregated data preprocessing (§5) moves decode/resize/pack
//     work to dedicated CPU nodes and exploits the position to reorder
//     samples — Algorithm 1 balances data-parallel groups, Algorithm 2
//     fills 1F1B pipeline intervals — without touching convergence
//     semantics.
//
// This package is the public facade: it wires the calibrated cost
// model, the planners, and the training runtime together. GPU kernels
// are simulated by a production-calibrated analytic model (see
// DESIGN.md for the substitution argument); scheduling, reordering,
// brokered communication, preprocessing and checkpointing execute for
// real.
//
// Quickstart:
//
//	spec, corpus, err := disttrain.NewSpec(disttrain.MLLM9B(), 12, 128)
//	plan, err := disttrain.PlanDistTrain(spec)
//	result, err := disttrain.Train(disttrain.NewTrainConfig(spec, plan, corpus), 5)
//	fmt.Printf("MFU %.1f%%\n", 100*result.MFU)
package disttrain

import (
	"context"
	"fmt"

	"disttrain/internal/cluster"
	"disttrain/internal/controller"
	"disttrain/internal/data"
	"disttrain/internal/experiments"
	"disttrain/internal/fleet"
	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/preprocess"
	"disttrain/internal/profiler"
	"disttrain/internal/scenario"
	"disttrain/internal/store"
	"disttrain/internal/trainer"
)

// Re-exported core types. The internal packages carry the full APIs;
// these aliases are the supported surface.
type (
	// Cluster describes the GPU fleet (nodes, NVLink, RDMA fabric).
	Cluster = cluster.Cluster
	// MLLM is a multimodal model: encoder + projectors + backbone +
	// generator (+ frozen VAE).
	MLLM = model.MLLM
	// Module identifies encoder, backbone or generator.
	Module = model.Module
	// FreezeSpec selects which modules are frozen (§7.3).
	FreezeSpec = model.FreezeSpec
	// SampleShape characterises one sample's modality composition.
	SampleShape = model.SampleShape
	// Corpus is the synthetic LAION-400M-like dataset.
	Corpus = data.Corpus
	// Sample is one packed multimodal training sample.
	Sample = data.Sample
	// Spec is an orchestration problem: cluster + model + batch +
	// calibrated profiler.
	Spec = orchestrator.Spec
	// Plan is a complete orchestration decision for the three modules.
	Plan = orchestrator.Plan
	// SearchOptions tunes the parallel plan-search engine (worker
	// count, per-candidate observer).
	SearchOptions = orchestrator.SearchOptions
	// Candidate is one (TP_lm, DP_lm, w_me, w_mg) strategy combination
	// of the §4.3 enumeration.
	Candidate = orchestrator.Candidate
	// PlanResult is one PlanMany outcome: a plan or that spec's error.
	PlanResult = orchestrator.PlanResult
	// TrainConfig configures the training runtime.
	TrainConfig = trainer.Config
	// TrainResult aggregates a training run's measurements.
	TrainResult = trainer.Result
	// Recovery records one survived node failure (checkpoint restore).
	Recovery = trainer.Recovery
	// Scenario injects timed perturbation events (stragglers, link
	// congestion, preprocessing degradation, node failures) into a
	// training run; see ParseScenario for the CLI grammar.
	Scenario = scenario.Scenario
	// ScenarioEvent is one timed perturbation.
	ScenarioEvent = scenario.Event
	// Trace accumulates a run's Chrome-trace-format timeline.
	Trace = metrics.Trace
	// ExperimentTable is one regenerated paper table/figure.
	ExperimentTable = experiments.Table
	// PreprocessConfig parameterises one disaggregated-preprocessing
	// producer (batch geometry, reordering, worker pool, readahead).
	PreprocessConfig = preprocess.Config
	// ProducerFleet runs N in-process producers; it satisfies the
	// trainer's ProducerControl, so scenario producer-fail /
	// producer-join events kill and restore members mid-run.
	ProducerFleet = preprocess.Fleet
	// PreprocessService is the consumer side of disaggregated
	// preprocessing: one producer fleet multiplexing every tenant's
	// (iteration, rank) fetches with deterministic assignment,
	// failover, weighted fair queueing, per-tenant admission quotas
	// and partitioned caches. A single job registers one tenant.
	// PreprocessTenant is one tenant's fetch handle on it, the
	// argument to UsePreprocessPool.
	PreprocessService       = preprocess.Service
	PreprocessServiceConfig = preprocess.ServiceConfig
	PreprocessTenant        = preprocess.Tenant
	PreprocessTenantConfig  = preprocess.TenantConfig
	// PoolMetrics collects pool fetch latency, failovers, rejections
	// and cache hit rate; PoolSnapshot is its point-in-time copy.
	PoolMetrics  = metrics.PoolStats
	PoolSnapshot = metrics.PoolSnapshot
	// BatchSource is the trainer's batch/assignment front-end seam; the
	// synthetic corpus path and PoolSource both satisfy it.
	BatchSource = trainer.BatchSource
	// PoolSource sources the trainer's microbatches from a live
	// producer pool over TCP.
	PoolSource = trainer.PoolSource
	// TrainController is the runtime's re-planning seam: it observes
	// every iteration's signals and may hand the run a new plan at an
	// iteration boundary (TrainConfig.Controller).
	TrainController = trainer.Controller
	// ControllerObservation is one iteration's signals as the runtime
	// feeds them to the controller.
	ControllerObservation = trainer.Observation
	// PlanSwitch is a controller decision to reconfigure onto a new
	// plan; Replan is the record of one applied switch in TrainResult.
	PlanSwitch = trainer.PlanSwitch
	Replan     = trainer.Replan
	// ReplanController is the drift-detecting TrainController: it
	// recalibrates the profiler from observed samples, re-runs the §4.3
	// search concurrently with training, trial-scores the winner under
	// the runtime cost model, and switches plans at deterministic
	// iteration boundaries.
	ReplanController = controller.Controller
	// ControllerConfig parameterises a ReplanController (drift
	// threshold, observation window, cooldown, switch budget).
	ControllerConfig = controller.Config
	// DriftReport is one windowed drift evaluation (cost drift vs the
	// planned profile, DP-rank spread, pool failovers/rejections).
	DriftReport = controller.DriftReport
	// Lease is a job's explicit, resizable claim on whole nodes of a
	// shared cluster — the multi-tenant unit of GPU ownership.
	Lease = cluster.Lease
	// TrainJob is one training run as a schedulable unit: built with
	// NewJob on a trainer runtime, advanced step by step, resizable at
	// iteration boundaries. The fleet runtime drives these.
	TrainJob = trainer.Job
	// LeaseAware is the optional TrainController extension notified
	// when the fleet resizes a job's lease mid-run.
	LeaseAware = trainer.LeaseAware
	// FleetConfig drives a multi-tenant fleet run: shared cluster, job
	// submissions, placement policy, fleet-scope scenario, plan cache.
	FleetConfig = fleet.Config
	// FleetJobSpec is one submission: a training template plus its
	// scheduling envelope (iterations, node range, arrival round).
	FleetJobSpec = fleet.JobSpec
	// FleetResult aggregates a fleet run; FleetJobResult is one
	// tenant's outcome.
	FleetResult    = fleet.Result
	FleetJobResult = fleet.JobResult
	// FleetScheduler decides admission order, lease sizing and
	// placement for a fleet run: FleetFIFO, FleetFairShare,
	// FleetPriority, or a custom implementation registered with
	// RegisterFleetScheduler.
	FleetScheduler = fleet.Scheduler
	// FleetJobView and FleetOps are what a custom FleetScheduler
	// sees: read-only tenant views and the runner's mutation surface
	// (shrink / grow / preempt, all costed checkpoint-reconfigures).
	FleetJobView = fleet.JobView
	FleetOps     = fleet.Ops
	// FleetClass is a job's priority class (low, normal, high); the
	// priority scheduler orders, preempts and ages by it.
	FleetClass = fleet.Class
	// FleetPriorityScheduler is the configurable priority scheduler
	// (aging horizon); FleetPriority is its ready-to-use default.
	FleetPriorityScheduler = fleet.PriorityScheduler
	// FleetRoundInfo is one scheduling round's lease-table snapshot,
	// delivered to FleetConfig.OnRound observers.
	FleetRoundInfo = fleet.RoundInfo
	// FleetPreprocessConfig attaches the fleet-shared disaggregated
	// preprocessing tier to a fleet run (FleetConfig.Preprocess).
	FleetPreprocessConfig = fleet.PreprocessConfig
	// PlanCache is the fingerprint-keyed, singleflight plan-search
	// cache fleets share: K identical specs pay for one §4.3 search.
	// Built with NewPersistentPlanCache it is also durable — plans
	// survive the process and warm-start searches at new lease sizes.
	PlanCache = orchestrator.PlanCache
	// PlanTicket is a handle on one asynchronous PlanCache request:
	// Wait blocks for the coalesced search, Publish makes the settled
	// result visible to warm-seed and settled-read surfaces.
	PlanTicket = orchestrator.PlanTicket
	// PlanStore is the durable key-value seam a persistent PlanCache
	// sits on: atomic last-write-wins puts, and corrupt or torn
	// entries read as misses, never as payloads.
	PlanStore = store.Store
)

// Fleet schedulers (policies). FIFO and FairShare are the historical
// count-based policies; Priority adds priority classes, preemption,
// aging and placement scoring.
var (
	FleetFIFO      = fleet.FIFO
	FleetFairShare = fleet.FairShare
	FleetPriority  = fleet.Priority
)

// Fleet priority classes.
const (
	FleetClassLow    = fleet.ClassLow
	FleetClassNormal = fleet.ClassNormal
	FleetClassHigh   = fleet.ClassHigh
)

// RegisterFleetScheduler adds a custom FleetScheduler to the
// name-keyed registry ParseFleetPolicy (and the disttrain-fleet
// -policy flag) resolves against.
func RegisterFleetScheduler(s FleetScheduler) error { return fleet.RegisterScheduler(s) }

// FleetSchedulerNames lists the registered scheduler names, sorted.
func FleetSchedulerNames() []string { return fleet.SchedulerNames() }

// Model presets of the paper's evaluation (§7).
func MLLM9B() MLLM  { return model.MLLM9B() }
func MLLM15B() MLLM { return model.MLLM15B() }
func MLLM72B() MLLM { return model.MLLM72B() }

// Freeze settings of §7.3.
var (
	FullTraining  = model.FullTraining
	AllFrozen     = model.AllFrozen
	EncoderOnly   = model.EncoderOnly
	LLMOnly       = model.LLMOnly
	GeneratorOnly = model.GeneratorOnly
)

// ProductionCluster returns the paper's evaluation fleet shape: nodes
// of eight Ampere-class GPUs on NVLink with 4x200 Gbps RoCEv2.
func ProductionCluster(nodes int) Cluster { return cluster.Production(nodes) }

// NewCorpus returns the deterministic synthetic corpus calibrated to
// the Figure 5 distributions.
func NewCorpus() (*Corpus, error) { return data.NewCorpus(data.LAION400M()) }

// NewSpec assembles a calibrated orchestration spec: a production
// cluster of the given node count, the model, the global batch size,
// a profiler calibrated on the synthetic corpus, and full training.
// Use NewSpecFrozen for the §7.3 settings.
func NewSpec(m MLLM, nodes, globalBatch int) (Spec, *Corpus, error) {
	return NewSpecFrozen(m, nodes, globalBatch, FullTraining)
}

// NewSpecFrozen is NewSpec with an explicit freeze setting.
func NewSpecFrozen(m MLLM, nodes, globalBatch int, freeze FreezeSpec) (Spec, *Corpus, error) {
	cl := cluster.Production(nodes)
	opts := profiler.DefaultOptions(cl, m)
	opts.Freeze = freeze
	p, err := profiler.New(opts)
	if err != nil {
		return Spec{}, nil, err
	}
	corpus, err := NewCorpus()
	if err != nil {
		return Spec{}, nil, err
	}
	if err := p.Calibrate(corpus, 300); err != nil {
		return Spec{}, nil, err
	}
	return Spec{
		Cluster:     cl,
		Model:       m,
		GlobalBatch: globalBatch,
		Microbatch:  1,
		Profiler:    p,
		VPP:         1,
	}, corpus, nil
}

// PlanDistTrain runs the adaptive disaggregated model orchestration
// (§4.3) and returns the optimal plan. The strategy enumeration runs
// on the parallel search engine with default options; the chosen plan
// is identical at any parallelism level.
func PlanDistTrain(s Spec) (*Plan, error) { return orchestrator.PlanDistTrain(s) }

// PlanDistTrainCtx is PlanDistTrain with context cancellation and
// search tuning (worker count, per-candidate observer).
func PlanDistTrainCtx(ctx context.Context, s Spec, opts SearchOptions) (*Plan, error) {
	return orchestrator.PlanDistTrainCtx(ctx, s, opts)
}

// PlanDistTrainSequential is the single-threaded reference
// implementation of the §4.3 enumeration, kept as the equivalence and
// benchmarking baseline for the parallel engine.
func PlanDistTrainSequential(s Spec) (*Plan, error) {
	return orchestrator.PlanDistTrainSequential(s)
}

// PlanMany plans many specs concurrently over one shared worker pool —
// the fleet-sweep path for scoring multiple cluster shapes or model
// configurations in a single call. Results are positional.
func PlanMany(ctx context.Context, specs []Spec, opts SearchOptions) []PlanResult {
	return orchestrator.PlanMany(ctx, specs, opts)
}

// PlanMegatron returns the monolithic Megatron-LM baseline plan (§2.1).
func PlanMegatron(s Spec) (*Plan, error) { return orchestrator.PlanMegatron(s) }

// PlanDistMM returns the DistMM* baseline plan (§7.2).
func PlanDistMM(s Spec) (*Plan, error) { return orchestrator.PlanDistMM(s) }

// NewTrainConfig returns the production DistTrain configuration: data
// reordering, disaggregated preprocessing and asynchronous inter-unit
// sends all enabled.
func NewTrainConfig(spec Spec, plan *Plan, corpus *Corpus) TrainConfig {
	return trainer.DistTrainConfig(spec, plan, corpus)
}

// NewMegatronTrainConfig returns the monolithic baseline runtime
// configuration.
func NewMegatronTrainConfig(spec Spec, plan *Plan, corpus *Corpus) TrainConfig {
	return trainer.MegatronConfig(spec, plan, corpus)
}

// Train executes n iterations under the configuration and aggregates
// MFU, throughput and per-iteration breakdowns. The runtime is the
// concurrent engine: per-DP-rank pipeline workers on a bounded pool
// (TrainConfig.Parallelism) with the batch/assignment front-end
// prefetched one iteration ahead; results are byte-identical to
// TrainSequential at any worker count. Scenario-injected node
// failures recover from the latest DFS checkpoint and re-execute the
// lost iterations.
func Train(cfg TrainConfig, n int) (*TrainResult, error) {
	rt, err := trainer.New(cfg)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	return rt.Run(n)
}

// TrainSequential is the single-threaded reference runtime, kept as
// the equivalence and benchmarking baseline for the concurrent engine
// (mirroring PlanDistTrainSequential).
func TrainSequential(cfg TrainConfig, n int) (*TrainResult, error) {
	rt, err := trainer.New(cfg)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	return rt.RunSequential(n)
}

// PreprocessConfigFor derives the producer configuration matching a
// training configuration: same corpus, batch geometry from the spec,
// DP size and pipeline stage count from the plan, reordering as
// configured. Producers built from it serve batches the trainer's
// PoolSource can consume directly.
func PreprocessConfigFor(cfg TrainConfig) (PreprocessConfig, error) {
	if cfg.Plan == nil {
		return PreprocessConfig{}, &UnplannedConfigError{}
	}
	lm := cfg.Plan.Modules[model.Backbone].Config
	return PreprocessConfig{
		Source:         cfg.Corpus,
		GlobalBatch:    cfg.Spec.GlobalBatch,
		DPSize:         lm.DP,
		Microbatch:     cfg.Spec.Microbatch,
		Reorder:        cfg.Reorder,
		PipelineStages: 1 + lm.PP + 1,
		Readahead:      1,
	}, nil
}

// UnplannedConfigError reports a TrainConfig without a plan where one
// is required.
type UnplannedConfigError struct{}

func (e *UnplannedConfigError) Error() string { return "disttrain: config has no plan" }

// NewPreprocessService builds the consumer-side preprocessing tier
// over a set of producers: register one tenant per job with
// Service.Register and point each training configuration at its
// handle with UsePreprocessPool.
func NewPreprocessService(cfg PreprocessServiceConfig) (*PreprocessService, error) {
	return preprocess.NewService(cfg)
}

// StartProducerFleet launches n in-process preprocessing producers on
// random loopback ports.
func StartProducerFleet(cfg PreprocessConfig, n int) (*ProducerFleet, error) {
	return preprocess.StartFleet(cfg, n)
}

// UsePreprocessPool points a training configuration's batch front-end
// at a tenant handle on a PreprocessService: microbatches come over
// TCP with failover instead of from the synthetic corpus path.
func UsePreprocessPool(cfg *TrainConfig, pool *PreprocessTenant) {
	cfg.Source = &trainer.PoolSource{Pool: pool, Samples: cfg.Corpus}
	cfg.DisaggregatedPreprocess = true
}

// FleetPreprocessFor derives the shared-tier configuration for a fleet
// whose jobs share tmpl's corpus and batch geometry: n producers, each
// serving tenant-keyed fetches at the tenant's own DP width.
// Reordering is off — the producer's Algorithm 2 interval model is
// plan-dependent, and tenants on elastic leases have no single plan.
func FleetPreprocessFor(tmpl TrainConfig, n int) *FleetPreprocessConfig {
	return &FleetPreprocessConfig{
		Producers: n,
		Server: PreprocessConfig{
			Source:      tmpl.Corpus,
			GlobalBatch: tmpl.Spec.GlobalBatch,
			DPSize:      1,
			Microbatch:  tmpl.Spec.Microbatch,
			Readahead:   1,
		},
	}
}

// NewReplanController builds the drift-detecting re-planning
// controller for a training configuration: attach it with
// UseReplanController (or set TrainConfig.Controller directly) to
// close the §4.3 adaptive loop at runtime. cfg.Train should be the
// same configuration the run executes (it is the trial-evaluation
// template); zero-valued tuning fields take the documented defaults.
func NewReplanController(cfg ControllerConfig) (*ReplanController, error) {
	return controller.New(cfg)
}

// UseReplanController wires a controller into a training
// configuration.
func UseReplanController(cfg *TrainConfig, ctrl TrainController) {
	cfg.Controller = ctrl
}

// RunFleet executes a multi-tenant fleet run: jobs are admitted in
// FIFO order, placed on the shared cluster through explicit node
// leases, elastically resized under the configured policy, and driven
// concurrently — one training iteration per job per scheduling round,
// fanned out over a bounded worker pool. Results and the merged fleet
// trace are deterministic at any worker count; a 1-job fleet is
// byte-identical to Train on the same cluster.
func RunFleet(cfg FleetConfig) (*FleetResult, error) { return fleet.Run(cfg) }

// NewPlanCache builds a shared plan-search cache; pass it to several
// FleetConfigs (or use one fleet's private cache implicitly) so
// identical specs across tenants pay for a single plan search.
func NewPlanCache(opts SearchOptions) *PlanCache { return orchestrator.NewPlanCache(opts) }

// NewPersistentPlanCache builds a plan cache written through to a
// durable store: plans survive the process, a later cache instance
// serves them with zero searches, and misses warm-start the §4.3
// search from the incumbent plan of a neighbouring lease size —
// without ever changing the chosen plan. FleetConfig.PlanCacheDir is
// the one-line way to get one inside a fleet run.
func NewPersistentPlanCache(opts SearchOptions, st PlanStore) *PlanCache {
	return orchestrator.NewPersistentPlanCache(opts, st)
}

// NewMemPlanStore returns an in-process PlanStore — persistence across
// cache instances within one process (mostly for tests and tooling).
func NewMemPlanStore() PlanStore { return store.NewMem() }

// NewDiskPlanStore opens (creating if needed) an on-disk PlanStore
// rooted at dir: one integrity-checked entry file per fingerprint,
// written atomically, corrupt entries skipped with a warning on read.
func NewDiskPlanStore(dir string) (PlanStore, error) { return store.OpenDisk(dir) }

// NewLease builds a lease over the given node indices of a shared
// cluster.
func NewLease(nodes ...int) Lease { return cluster.NewLease(nodes...) }

// ParseFleetPolicy resolves a policy name (fifo, fair-share,
// priority, or any name registered via RegisterFleetScheduler) to its
// FleetScheduler. "fair" stays accepted as an alias for "fair-share".
func ParseFleetPolicy(s string) (FleetScheduler, error) {
	if s == "fair" {
		s = "fair-share"
	}
	if sched, ok := fleet.LookupScheduler(s); ok {
		return sched, nil
	}
	return nil, fmt.Errorf("disttrain: unknown fleet policy %q (registered: %v)", s, fleet.SchedulerNames())
}

// ParseFleetClass validates a priority-class name ("" means normal).
func ParseFleetClass(s string) (FleetClass, error) { return fleet.ParseClass(s) }

// ParseScenario builds a Scenario from the CLI grammar shared with the
// -scenario flag: semicolon-separated `kind:key=value,...` events —
// e.g. `straggler:iters=2-5,rank=0,factor=2.5; failure:iter=6`,
// `workload-shift:iters=4-9,factor=3`,
// `producer-fail:iter=2,producer=1`,
// the fleet-scope events `job-arrive:iter=2,job=1`,
// `job-depart:iter=5,job=0`, `node-fail:iter=3,node=2`,
// `node-join:iter=6,node=2`, `priority-arrive:iter=2,job=1,class=high`,
// `preempt-storm:iter=3,job=0,class=high,count=3`
// (FleetConfig.Scenario), or the
// seeded generator `random-stragglers:seed=7,ranks=8,prob=0.3,max=3`.
func ParseScenario(spec string) (Scenario, error) { return scenario.Parse(spec) }

// NewScenario builds a fixed-event scenario from explicit events.
func NewScenario(name string, events ...ScenarioEvent) (Scenario, error) {
	s, err := scenario.New(name, events...)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// NewTrace returns an empty execution-timeline collector; attach it to
// TrainConfig.Trace and write it out with its WriteJSON method after
// training (chrome://tracing / Perfetto format).
func NewTrace() *Trace { return metrics.NewTrace() }

// Experiment regenerates one paper table/figure by ID (fig3, fig5,
// fig13..fig19, fig22, table2, table3). quick shrinks workloads for
// smoke runs.
func Experiment(id string, quick bool) (*ExperimentTable, error) {
	fn, ok := experiments.Registry[id]
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	scale := experiments.Full
	if quick {
		scale = experiments.Quick
	}
	return fn(scale)
}

// ExperimentIDs lists the regenerable experiments in paper order.
func ExperimentIDs() []string { return append([]string(nil), experiments.Order...) }

// UnknownExperimentError reports a bad experiment ID.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "disttrain: unknown experiment " + e.ID
}
