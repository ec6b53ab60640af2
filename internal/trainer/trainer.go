// Package trainer is the DistTrain runtime of §3: it executes training
// iterations over an orchestration plan — fetch a global batch
// (disaggregated or co-located preprocessing), reorder it (Algorithms 1
// and 2), drive every data-parallel pipeline through the 1F1B schedule
// with per-microbatch heterogeneous stage times, synchronise gradients
// with ZeRO-1, step the optimizer, and asynchronously checkpoint to the
// DFS. All GPU work is charged through the calibrated profiler; all
// control decisions (assignment, ordering, straggler propagation) are
// executed for real.
//
// The runtime is a concurrent, event-driven engine: a batch/assignment
// front-end (prefetched one iteration ahead by the async data service),
// per-DP-rank pipeline workers on a bounded pool, and a deterministic
// reduce that keeps results byte-identical to the pinned sequential
// reference (RunIterationSequential / RunSequential) at any worker
// count — the same engineering contract as the orchestrator's parallel
// plan search. Scenario injection (internal/scenario) perturbs stage
// compute, the data path, and the fabric, and can kill the job to
// exercise checkpoint-restore recovery.
package trainer

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"disttrain/internal/cluster"
	"disttrain/internal/comm"
	"disttrain/internal/data"
	"disttrain/internal/dfs"
	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/reorder"
	"disttrain/internal/scenario"
)

// Cost-model constants of the simulated runtime.
const (
	// preprocessFetchLatency is the fixed per-iteration latency of
	// fetching preprocessed tensors from the disaggregated CPU nodes,
	// in seconds.
	preprocessFetchLatency = 2e-3
	// asyncP2PExposed is the fraction of each inter-unit activation
	// transfer that asynchronous sends leave exposed on the critical
	// path (§6); synchronous sends always expose the full transfer.
	asyncP2PExposed = 0.2
	// colocOverlapCapacity is the fraction of pipeline time the
	// co-located dataloader workers can hide preprocessing behind
	// (§2.3, Figure 17).
	colocOverlapCapacity = 0.5
	// colocInterference is the CPU-interference tax charged on the
	// hidden fraction of co-located preprocessing.
	colocInterference = 0.15
)

// Config describes one training run.
type Config struct {
	Spec   orchestrator.Spec
	Plan   *orchestrator.Plan
	Corpus *data.Corpus

	// Lease, when non-nil, scopes the run to the leased nodes of
	// Spec.Cluster instead of letting it implicitly own the whole
	// fleet: the runtime prices collectives, checkpoints and plans
	// against the lease's subcluster, and the fleet scheduler
	// (internal/fleet) may grow or shrink the lease mid-run through
	// (*Job).Resize. Nil is the historical standalone behaviour —
	// equivalent to a lease covering every node of Spec.Cluster.
	Lease *cluster.Lease
	// PlacementPricing, with a Lease, prices the run against the
	// lease's concrete placement (cluster.Lease.Placed — a fragmented
	// lease loses rail alignment) instead of its node count alone.
	// The fleet's placement-scoring schedulers set it; count-based
	// policies leave it off so equal-size leases price identically
	// wherever their nodes land.
	PlacementPricing bool

	// Reorder enables DistTrain's dual-level data reordering (§5); off,
	// samples are consumed in corpus order (the Megatron-LM baseline of
	// Figure 16).
	Reorder bool
	// DisaggregatedPreprocess moves preprocessing to dedicated CPU
	// nodes; off, the training nodes preprocess inline and stall (§2.3,
	// Figure 17).
	DisaggregatedPreprocess bool
	// AsyncP2P uses DistTrain's asynchronous inter-unit sends (§6);
	// off, Megatron-LM's synchronous batched send/receive exposes the
	// full transfer on the critical path.
	AsyncP2P bool
	// PreprocessCost prices co-located preprocessing CPU work.
	PreprocessCost data.CostModel
	// SyncOverlap is the fraction of gradient synchronisation hidden
	// behind backward compute (production overlapping, §9-cited works).
	SyncOverlap float64
	// CheckpointEvery saves a checkpoint every n iterations (0 = off).
	CheckpointEvery int
	// FS receives checkpoints; defaults to a fresh simulated DFS.
	FS *dfs.FS

	// Source overrides the batch/assignment front-end: when non-nil,
	// every iteration's per-rank sample assignment comes from it — e.g.
	// a live TCP producer pool via PoolSource — instead of the
	// synthetic corpus + Algorithm 1 path. The Corpus is still required
	// (profiler calibration and sample-shape recovery read it).
	Source BatchSource
	// ProducerControl receives scenario producer-fail / producer-join
	// events, killing and restoring live pool members mid-run
	// (preprocess.Fleet implements it); nil ignores those events.
	ProducerControl ProducerControl

	// Controller, when non-nil, closes the §4.3 adaptive loop at
	// runtime: it observes every iteration's signals and may hand the
	// run a new plan to apply at an iteration boundary as a costed
	// reconfiguration (internal/controller implements drift-triggered
	// re-planning). Nil runs the plan chosen ahead of time, unchanged.
	Controller Controller
	// PoolStats, when non-nil alongside a live producer pool, is
	// snapshotted into every controller Observation so failover and
	// rejection counts can contribute to drift detection.
	PoolStats *metrics.PoolStats
	// GradientDim, when positive, accumulates the exact (wrap-around
	// int64) pseudo-gradient of every first-execution iteration's
	// global batch into Result.GradientSum — the §5 commutativity
	// witness, extended across failure rewinds and plan switches. 0
	// disables the accumulation.
	GradientDim int

	// Parallelism bounds the concurrent runtime's per-DP-rank pipeline
	// worker pool; values < 1 mean GOMAXPROCS. The results are
	// byte-identical at any value (pinned by test against the
	// sequential reference).
	Parallelism int
	// Scenario injects timed perturbation events — stragglers,
	// preprocessing degradation, link congestion, node failures; nil
	// is the steady state.
	Scenario scenario.Scenario
	// Trace, when non-nil, receives the run's execution timeline in
	// Chrome trace format (load in chrome://tracing or Perfetto).
	Trace *metrics.Trace
}

// DistTrainConfig returns the production configuration for a plan: all
// DistTrain techniques enabled.
func DistTrainConfig(spec orchestrator.Spec, plan *orchestrator.Plan, corpus *data.Corpus) Config {
	return Config{
		Spec: spec, Plan: plan, Corpus: corpus,
		Reorder:                 true,
		DisaggregatedPreprocess: true,
		AsyncP2P:                true,
		PreprocessCost:          data.DefaultCostModel(),
		SyncOverlap:             0.7,
	}
}

// MegatronConfig returns the monolithic baseline configuration: random
// (corpus) order, co-located preprocessing, synchronous sends.
func MegatronConfig(spec orchestrator.Spec, plan *orchestrator.Plan, corpus *data.Corpus) Config {
	cfg := DistTrainConfig(spec, plan, corpus)
	cfg.Reorder = false
	cfg.DisaggregatedPreprocess = false
	cfg.AsyncP2P = false
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Plan == nil {
		return errors.New("trainer: nil plan")
	}
	if c.Corpus == nil {
		return errors.New("trainer: nil corpus")
	}
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.SyncOverlap < 0 || c.SyncOverlap > 1 {
		return fmt.Errorf("trainer: SyncOverlap %g outside [0,1]", c.SyncOverlap)
	}
	if c.GradientDim < 0 {
		return fmt.Errorf("trainer: GradientDim %d negative", c.GradientDim)
	}
	return nil
}

// IterationStats records one iteration.
type IterationStats struct {
	Index     int
	Breakdown metrics.Breakdown
	// BubbleFrac is the mean pipeline bubble fraction of the slowest DP
	// rank's pipeline.
	BubbleFrac float64
	// StragglerSpread is (max-min)/max pipeline time across DP ranks —
	// the intra-microbatch straggler penalty.
	StragglerSpread float64
	// FLOPs is model compute executed this iteration.
	FLOPs float64
	// MFU is this iteration's Model FLOPs Utilization.
	MFU float64
	// Perturbed marks iterations the scenario touched.
	Perturbed bool
}

// Recovery records one survived node failure.
type Recovery struct {
	// FailedAt is the iteration the failure interrupted.
	FailedAt int
	// ResumedFrom is the first iteration re-executed after restoring
	// the latest DFS checkpoint (0 when no checkpoint existed).
	ResumedFrom int
	// Downtime is detection/restart plus the checkpoint restore read,
	// in simulated seconds.
	Downtime float64
}

// Result aggregates a run.
type Result struct {
	Strategy   string
	GPUs       int
	Iterations []IterationStats
	// MeanIterTime in seconds, MFU and TokensPerSec aggregated over all
	// iterations. Under failures, MFU and TokensPerSec count only
	// useful (non-re-executed) work over the total wall-clock including
	// downtime.
	MeanIterTime float64
	MFU          float64
	TokensPerSec float64
	// CheckpointsSaved counts asynchronous checkpoints that reached the
	// DFS.
	CheckpointsSaved int
	// Failures counts scenario-injected node failures survived;
	// ReExecutedIterations the iterations redone after restores, and
	// DowntimeSeconds the total detection/restart + restore time —
	// including the reconfiguration cost of controller plan switches.
	Failures             int
	ReExecutedIterations int
	DowntimeSeconds      float64
	// Recoveries records each failure in order.
	Recoveries []Recovery
	// PlanSwitches counts mid-run reconfigurations the re-planning
	// controller applied; Replans records each one in order. Their
	// downtime is included in DowntimeSeconds.
	PlanSwitches int
	Replans      []Replan
	// GradientSum is the exact wrap-around int64 gradient accumulation
	// over every first-execution iteration's global batch, populated
	// when Config.GradientDim > 0. Plans (and plan switches) permute
	// placement and order, never the commutative accumulation, so any
	// two runs over the same batches agree bit for bit.
	GradientSum []int64
}

// Runtime executes iterations for a fixed configuration. Its methods
// are not safe for concurrent use — the concurrency lives inside the
// engine, not across callers.
type Runtime struct {
	cfg    Config
	source BatchSource
	ckpt   *dfs.CheckpointManager
	fs     *dfs.FS
	// base is the shared cluster a leased run was scoped out of; the
	// zero value (standalone runs) is never read.
	base cluster.Cluster
	// stage geometry
	stages   int
	llmFirst int // index of first LLM stage
	genStage int
	p2p      []float64
	// clock is the trace emission cursor in simulated seconds.
	clock float64
	// namedRanks tracks how many dp-rank trace lanes carry names, so a
	// plan switch that grows DP names only the new lanes.
	namedRanks int

	// flops is the spec model's compiled FLOP table, which the reduce
	// path prices every sample through.
	flops *model.CostTable

	// Hot-loop scratch. part/costBuf/costShape belong to the
	// batch-assignment path (at most one prepare is outstanding, so no
	// locking); flopsShape belongs to the reduce path, which may run
	// concurrently with a prefetching prepare; rankScratch pools
	// per-worker pipeline buffers; outcomesBuf is the per-iteration
	// outcome slots, reused because iterations are serial.
	part        reorder.Partitioner
	costBuf     []float64
	costShape   []int
	flopsShape  []int
	rankScratch sync.Pool
	outcomesBuf []rankOutcome
	// opNames caches the fwd/bwd trace event names per microbatch index.
	opNames [2][]string
}

// leaseCluster scopes the run's cluster to a lease: its concrete
// placement under PlacementPricing, its bare node count otherwise.
func (cfg Config) leaseCluster(l cluster.Lease, base cluster.Cluster) cluster.Cluster {
	if cfg.PlacementPricing {
		return l.Placed(base)
	}
	return l.Subcluster(base)
}

// leaseShape is the placement shape the spec should carry for a
// lease: meaningful only under PlacementPricing.
func (cfg Config) leaseShape(l cluster.Lease) string {
	if cfg.PlacementPricing {
		return l.Shape()
	}
	return ""
}

// New validates the config and builds a runtime. A leased config is
// rescoped first: the runtime's effective cluster becomes the lease's
// subcluster (or its placement-priced view under PlacementPricing),
// so a job on an n-node lease executes byte-identically to a
// standalone run on an n-node cluster.
func New(cfg Config) (*Runtime, error) {
	base := cfg.Spec.Cluster
	if cfg.Lease != nil {
		if err := cfg.Lease.Validate(base); err != nil {
			return nil, err
		}
		lease := *cfg.Lease // defensive copy: Resize swaps the pointer
		cfg.Lease = &lease
		cfg.Spec.Cluster = cfg.leaseCluster(lease, base)
		cfg.Spec.Placement = cfg.leaseShape(lease)
		cfg.Spec.MaxGPUs = 0
		if cfg.Plan != nil && cfg.Plan.TotalGPUs() > lease.GPUs(base) {
			return nil, fmt.Errorf("trainer: plan wants %d GPUs, lease holds %d", cfg.Plan.TotalGPUs(), lease.GPUs(base))
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	flops, err := model.NewCostTable(&cfg.Spec.Model)
	if err != nil {
		return nil, err
	}
	r := &Runtime{cfg: cfg, base: base, flops: flops}
	r.rankScratch.New = func() any { return new(rankScratch) }
	r.source = cfg.Source
	if r.source == nil {
		r.source = corpusFrontEnd{r}
	}
	lm := cfg.Plan.Modules[model.Backbone].Config
	r.stages = 1 + lm.PP + 1
	r.llmFirst = 1
	r.genStage = r.stages - 1
	r.p2p = r.buildP2P()
	if cfg.CheckpointEvery > 0 {
		r.fs = cfg.FS
		if r.fs == nil {
			r.fs = dfs.New()
		}
		r.ckpt = dfs.NewCheckpointManager(r.fs, "train")
	}
	if tr := r.cfg.Trace; tr != nil {
		tr.NameProcess(0, "runtime")
		r.nameRankLanes(lm.DP)
	}
	return r, nil
}

// nameRankLanes labels dp-rank trace lanes up to dp, naming each lane
// at most once across plan switches.
func (r *Runtime) nameRankLanes(dp int) {
	tr := r.cfg.Trace
	if tr == nil {
		return
	}
	for d := r.namedRanks; d < dp; d++ {
		tr.NameProcess(d+1, fmt.Sprintf("dp-rank %d", d))
	}
	if dp > r.namedRanks {
		r.namedRanks = dp
	}
}

// Close releases the checkpoint writer.
func (r *Runtime) Close() {
	if r.ckpt != nil {
		r.ckpt.Close()
	}
}

// buildP2P prices the inter-stage activation transfers. Links between
// parallelism units ride the communication brokers over RDMA; LLM-
// internal links are plain pipeline sends. Asynchronous sends hide
// most of the transfer (§6); synchronous batched sends expose it all.
func (r *Runtime) buildP2P() []float64 {
	spec := r.cfg.Spec
	m := spec.Model
	bytesLM := float64(spec.Microbatch) * float64(m.SeqLen) * float64(m.Backbone.HiddenSize) * 2
	cost := comm.CollectiveCost{
		BandwidthBps: spec.Cluster.CrossNodeBandwidthPerGPU(),
		Latency:      spec.Cluster.LinkLatency,
	}
	exposed := 1.0
	if r.cfg.AsyncP2P {
		exposed = asyncP2PExposed
	}
	p2p := make([]float64, r.stages-1)
	for i := range p2p {
		p2p[i] = cost.P2P(bytesLM) * exposed
	}
	return p2p
}

// iterP2P returns the iteration's link costs: the plan's baseline,
// scaled by whatever congestion the scenario injects. The steady state
// reuses the shared slice so the unperturbed path allocates nothing.
func (r *Runtime) iterP2P(pert scenario.Perturbation) []float64 {
	f := pert.P2PFactor()
	if f == 1 {
		return r.p2p
	}
	scaled := make([]float64, len(r.p2p))
	for i, v := range r.p2p {
		scaled[i] = v * f
	}
	return scaled
}

// microbatchWorkInto fills caller-provided stage slices (len r.stages)
// with the fwd/bwd durations of one microbatch (one sample when M=1),
// charging each module's share of it through the profiler and the
// plan's allocation ratios.
func (r *Runtime) microbatchWorkInto(shape model.SampleShape, fwd, bwd []float64) {
	spec := &r.cfg.Spec
	plan := r.cfg.Plan
	p := spec.Profiler
	mbs := float64(spec.Microbatch)
	dpLM := float64(plan.Modules[model.Backbone].Config.DP)

	// Encoder stage: per-LLM-rank share of the encoder pool.
	enc := plan.Modules[model.Encoder]
	wE := enc.Config.ModelParallelWidth()
	scaleE := float64(wE) * dpLM * mbs / float64(enc.GPUs())
	fwdE := p.SampleForward(model.Encoder, wE, shape)
	totE := p.SampleTrain(model.Encoder, wE, shape)
	fwd[0] = fwdE * scaleE
	bwd[0] = (totE - fwdE) * scaleE

	// LLM stages: homogeneous across microbatches (fixed-length packed
	// sequences, §2.3).
	lm := plan.Modules[model.Backbone]
	fwdL := p.SampleForward(model.Backbone, lm.Config.ModelParallelWidth(), shape)
	totL := p.SampleTrain(model.Backbone, lm.Config.ModelParallelWidth(), shape)
	perStageF := fwdL * mbs / float64(lm.Config.PP)
	perStageB := (totL - fwdL) * mbs / float64(lm.Config.PP)
	for s := r.llmFirst; s < r.genStage; s++ {
		fwd[s] = perStageF
		bwd[s] = perStageB
	}

	// Generator stage.
	gen := plan.Modules[model.Generator]
	wG := gen.Config.ModelParallelWidth()
	scaleG := float64(wG) * dpLM * mbs / float64(gen.GPUs())
	fwdG := p.SampleForward(model.Generator, wG, shape)
	totG := p.SampleTrain(model.Generator, wG, shape)
	fwd[r.genStage] = fwdG * scaleG
	bwd[r.genStage] = (totG - fwdG) * scaleG
}

// sampleCost prices one sample's data-heterogeneous compute (encoder
// plus generator), the size notion Algorithms 1's partition and the
// rebalance both order by. It reuses the assignment path's shape
// buffer, so it must only be called from that path (prepare/assign).
func (r *Runtime) sampleCost(s data.Sample) float64 {
	p := r.cfg.Spec.Profiler
	sh := s.ShapeInto(r.costShape)
	r.costShape = sh.ImageTokens
	return p.SampleTrain(model.Encoder, 1, sh) + p.SampleTrain(model.Generator, 1, sh)
}

// assign distributes the global batch across DP ranks: DistTrain's
// Algorithm 1 when reordering, contiguous blocks (the framework
// default) otherwise. Each rank's samples are then grouped into
// K microbatches of M samples.
func (r *Runtime) assign(batch []data.Sample) ([][]data.Sample, error) {
	dp := r.cfg.Plan.Modules[model.Backbone].Config.DP
	perRank := len(batch) / dp
	if perRank*dp != len(batch) {
		return nil, fmt.Errorf("trainer: batch %d not divisible by DP %d", len(batch), dp)
	}
	if !r.cfg.Reorder {
		out := make([][]data.Sample, dp)
		for d := 0; d < dp; d++ {
			out[d] = batch[d*perRank : (d+1)*perRank]
		}
		return out, nil
	}
	// Price every sample exactly once, then partition and rebalance
	// over indices with the runtime's scratch partitioner — only the
	// materialised per-rank slices allocate (they outlive the call:
	// the prefetched assignment is consumed an iteration later).
	if cap(r.costBuf) < len(batch) {
		r.costBuf = make([]float64, len(batch))
	}
	costs := r.costBuf[:len(batch)]
	for i := range batch {
		costs[i] = r.sampleCost(batch[i])
	}
	groups, err := r.part.Partition(costs, dp)
	if err != nil {
		return nil, err
	}
	// The LPT partition balances load but may leave groups of unequal
	// cardinality; rebalance counts while preserving the size ordering
	// (each rank must own exactly K*M samples for synchronous 1F1B).
	groups = r.part.Rebalance(groups, perRank, costs)
	flat := make([]data.Sample, len(batch))
	out := make([][]data.Sample, dp)
	off := 0
	for d, g := range groups {
		dst := flat[off : off+len(g)]
		for j, i := range g {
			dst[j] = batch[i]
		}
		out[d] = dst
		off += len(g)
	}
	return out, nil
}

// rebalance moves surplus samples (smallest first, so balance damage is
// minimal) from overfull groups to underfull ones. The multiset of
// samples is preserved: only ownership moves. This sort-based form is
// the pinned reference; the hot path runs the sort-free
// reorder.(*Partitioner).Rebalance, which tests hold byte-identical to
// this.
func rebalance(groups [][]data.Sample, perRank int, size func(data.Sample) float64) [][]data.Sample {
	var surplus []data.Sample
	for d := range groups {
		if len(groups[d]) > perRank {
			surplus = append(surplus, groups[d][perRank:]...)
			groups[d] = groups[d][:perRank]
		}
	}
	// Smallest first; stable so ties keep the deterministic group
	// emission order.
	slices.SortStableFunc(surplus, func(a, b data.Sample) int {
		sa, sb := size(a), size(b)
		if sa < sb {
			return -1
		}
		if sb < sa {
			return 1
		}
		return 0
	})
	for d := range groups {
		for len(groups[d]) < perRank && len(surplus) > 0 {
			groups[d] = append(groups[d], surplus[0])
			surplus = surplus[1:]
		}
	}
	return groups
}

// gradSync returns the exposed gradient/parameter synchronisation time:
// each module reduce-scatters gradients and all-gathers parameters
// across its DP group, partially hidden behind backward compute.
func (r *Runtime) gradSync() float64 {
	spec := &r.cfg.Spec
	freeze := spec.Profiler.Freeze()
	cost := comm.CollectiveCost{
		BandwidthBps: spec.Cluster.CrossNodeBandwidthPerGPU(),
		Latency:      spec.Cluster.LinkLatency,
	}
	worst := 0.0
	for _, mp := range r.cfg.Plan.Modules {
		if freeze.Frozen(mp.Module) {
			continue
		}
		params := spec.Model.Params(mp.Module) / float64(mp.Config.ModelParallelWidth()*mp.Config.PP)
		dp := mp.Config.DP
		if mp.Replicated {
			dp = mp.GPUs() / mp.Config.PP
			params = spec.Model.Params(mp.Module)
		}
		t := comm.ZeRO1GradSync(cost, params, dp)
		worst = math.Max(worst, t*(1-r.cfg.SyncOverlap))
	}
	return worst
}

// optimizerStep prices the ZeRO-1 sharded Adam update: ~32 bytes of
// reads+writes per locally owned parameter, memory-bound.
func (r *Runtime) optimizerStep() float64 {
	spec := &r.cfg.Spec
	freeze := spec.Profiler.Freeze()
	worst := 0.0
	for _, mp := range r.cfg.Plan.Modules {
		if freeze.Frozen(mp.Module) {
			continue
		}
		shard := spec.Model.Params(mp.Module) / float64(mp.GPUs())
		t := shard * 32 / spec.Cluster.GPU.MemoryBWBytes
		worst = math.Max(worst, t)
	}
	return worst
}

// stateBytes returns the bytes of one full training state — trainable
// parameters plus optimizer state — and the GPUs that stream it.
// ZeRO-1 makes optimizer shards disjoint across every GPU of a module,
// so all of a trainable module's GPUs transfer their own shards in
// parallel.
func (r *Runtime) stateBytes() (bytes float64, clients int) {
	spec := &r.cfg.Spec
	freeze := spec.Profiler.Freeze()
	for _, mp := range r.cfg.Plan.Modules {
		if freeze.Frozen(mp.Module) {
			continue
		}
		bytes += spec.Model.Params(mp.Module) * (model.BytesPerParam + model.BytesPerOptimState)
		clients += mp.GPUs()
	}
	return bytes, clients
}

func (r *Runtime) stateFS() *dfs.FS {
	if r.fs != nil {
		return r.fs
	}
	return dfs.New()
}

// checkpointSeconds prices one full checkpoint write to the DFS.
func (r *Runtime) checkpointSeconds() float64 {
	bytes, writers := r.stateBytes()
	if writers == 0 {
		return 0
	}
	fs := r.stateFS()
	return fs.Latency + bytes/(fs.WriteBps*float64(writers))
}

// restoreSeconds prices reading one full training state back from the
// DFS — the recovery (and plan-switch) restore path.
func (r *Runtime) restoreSeconds() float64 {
	bytes, readers := r.stateBytes()
	if readers == 0 {
		return 0
	}
	fs := r.stateFS()
	return fs.Latency + bytes/(fs.ReadBps*float64(readers))
}

// iterationFLOPs sums the model FLOPs executed for the batch under the
// freeze setting. Runs on the reduce path; its shape buffer is
// disjoint from the assignment path's, which may be prefetching
// concurrently.
func (r *Runtime) iterationFLOPs(batch []data.Sample) float64 {
	freeze := r.cfg.Spec.Profiler.Freeze()
	var total float64
	for _, s := range batch {
		shape := s.ShapeInto(r.flopsShape)
		r.flopsShape = shape.ImageTokens
		for _, mod := range model.Modules {
			fwd, bwd := r.flops.Train(mod, shape, freeze)
			total += fwd + bwd
		}
	}
	return total
}

// aggregateShapeInto merges the shapes of a microbatch's samples into
// a caller-provided token buffer; the result aliases it.
func aggregateShapeInto(samples []data.Sample, buf []int) model.SampleShape {
	out := model.SampleShape{ImageTokens: buf[:0:cap(buf)]}
	for _, s := range samples {
		out.ImageTokens = s.AppendImageTokens(out.ImageTokens)
		out.GenImages += s.GenImages
	}
	return out
}
