package trainer

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"disttrain/internal/data"
	"disttrain/internal/dfs"
	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/pipeline"
	"disttrain/internal/reorder"
	"disttrain/internal/scenario"
)

// This file is the concurrent iteration engine. One iteration splits
// into three stages:
//
//  1. front-end: fetch the global batch and run Algorithm 1's DP-rank
//     assignment — a pure function of the iteration index, which is
//     what lets the async data service compute it one iteration ahead;
//  2. rank workers: per DP rank, build microbatches, apply Algorithm 2
//     ordering, and simulate the exact 1F1B timeline — fanned out over
//     a bounded worker pool (Config.Parallelism);
//  3. reduce: fold the per-rank outcomes in rank order into the
//     iteration breakdown.
//
// Because every rank is evaluated independently and the reduce order
// is fixed, the concurrent engine returns results byte-identical to
// the sequential reference at any worker count — the same contract as
// the orchestrator's parallel plan search.

// preparedBatch is the front-end's output for one iteration.
type preparedBatch struct {
	iter  int
	batch []data.Sample
	ranks [][]data.Sample
	err   error
}

// prepare fetches and assigns the global batch of one iteration
// through the configured BatchSource — the synthetic corpus front-end
// by default, a live TCP producer pool when Config.Source is set. A
// batch of any size other than Spec.GlobalBatch fails the iteration:
// a producer configured for another batch size would otherwise train
// that many samples while MFU and tokens/s still price GlobalBatch.
func (r *Runtime) prepare(iter int) preparedBatch {
	dp := r.cfg.Plan.Modules[model.Backbone].Config.DP
	batch, ranks, err := r.source.Assign(iter, dp)
	if want := r.cfg.Spec.GlobalBatch; err == nil && len(batch) != want {
		err = fmt.Errorf("trainer: iteration %d: batch source delivered %d samples, Spec.GlobalBatch is %d",
			iter, len(batch), want)
	}
	return preparedBatch{iter: iter, batch: batch, ranks: ranks, err: err}
}

// rankOutcome is one DP rank's pipeline execution.
type rankOutcome struct {
	iterTime float64
	bubble   float64
	// ops is the rank's full timeline, captured only when tracing.
	ops []pipeline.Op
	err error
}

// rankScratch is one worker's reusable pipeline buffers: microbatch
// headers, a flat float backing for their stage times and the
// simulator's work rows, and the shape-aggregation token buffer.
// Pooled per runtime; a worker holds one for the duration of a
// runRank call. Nothing scratch-backed escapes the call: the
// simulator's op timeline (the only retained output) is freshly
// allocated inside pipeline.Simulate.
type rankScratch struct {
	mbs   []reorder.Microbatch
	buf   []float64
	fwd   [][]float64
	bwd   [][]float64
	shape []int
}

// runRank executes one DP rank's pipeline: microbatch construction,
// Algorithm 2 ordering, exact 1F1B simulation — under the iteration's
// scenario perturbation. Pure with respect to runtime state (all
// mutable state lives in the pooled scratch), so rank workers may run
// concurrently.
func (r *Runtime) runRank(d int, samples []data.Sample, p2p []float64, pert scenario.Perturbation) rankOutcome {
	cfg := &r.cfg
	m := cfg.Spec.Microbatch
	k := len(samples) / m
	sc := r.rankScratch.Get().(*rankScratch)
	defer r.rankScratch.Put(sc)
	// Flat layout: k*stages fwd + k*stages bwd microbatch times, then
	// stages*k + stages*k simulator work rows.
	need := 4 * k * r.stages
	if cap(sc.buf) < need {
		sc.buf = make([]float64, need)
	}
	buf := sc.buf[:need]
	if cap(sc.mbs) < k {
		sc.mbs = make([]reorder.Microbatch, k)
	}
	mbs := sc.mbs[:k]
	for j := 0; j < k; j++ {
		// A microbatch of M samples: aggregate their shapes.
		shape := aggregateShapeInto(samples[j*m:(j+1)*m], sc.shape)
		sc.shape = shape.ImageTokens
		fwd := buf[2*j*r.stages : (2*j+1)*r.stages]
		bwd := buf[(2*j+1)*r.stages : (2*j+2)*r.stages]
		r.microbatchWorkInto(shape, fwd, bwd)
		mbs[j] = reorder.Microbatch{Index: j, Fwd: fwd, Bwd: bwd}
	}
	if cfg.Reorder {
		vpp := cfg.Plan.Modules[model.Backbone].Config.VPP
		var err error
		mbs, err = reorder.InterReorderVPP(mbs, p2p, vpp)
		if err != nil {
			return rankOutcome{err: err}
		}
	}
	if cap(sc.fwd) < r.stages {
		sc.fwd = make([][]float64, r.stages)
		sc.bwd = make([][]float64, r.stages)
	}
	work := pipeline.Work{
		Fwd:   sc.fwd[:r.stages],
		Bwd:   sc.bwd[:r.stages],
		P2P:   p2p,
		Rates: pert.RateSchedules(d, r.stages),
	}
	rows := buf[2*k*r.stages:]
	for s := 0; s < r.stages; s++ {
		work.Fwd[s] = rows[s*k : (s+1)*k]
		work.Bwd[s] = rows[(r.stages+s)*k : (r.stages+s+1)*k]
		for j, mb := range mbs {
			work.Fwd[s][j] = mb.Fwd[s]
			work.Bwd[s][j] = mb.Bwd[s]
		}
	}
	res, err := pipeline.Simulate(pipeline.OneFOneB, work)
	if err != nil {
		return rankOutcome{err: err}
	}
	out := rankOutcome{iterTime: res.IterTime, bubble: res.MeanBubbleFraction()}
	if cfg.Trace != nil {
		out.ops = res.Ops
	}
	return out
}

// finishIteration is the deterministic reduce: it folds the per-rank
// outcome slots in rank order and prices the iteration's serial
// phases. Both the sequential reference and the concurrent engine end
// here, so their results agree bit for bit.
func (r *Runtime) finishIteration(p preparedBatch, pert scenario.Perturbation, outcomes []rankOutcome) (IterationStats, error) {
	cfg := &r.cfg
	spec := &cfg.Spec
	var bd metrics.Breakdown

	// Data arrival. Disaggregated preprocessing only pays the
	// (prefetched) tensor receive; the co-located stall is priced after
	// the pipeline time is known, because dataloader workers overlap
	// with training and only the overflow plus CPU interference is
	// exposed (§2.3, Figure 17). Scenario degradation scales the data
	// path either way.
	dp := cfg.Plan.Modules[model.Backbone].Config.DP
	perRank := len(p.batch) / dp
	ppFactor := pert.PreprocessFactor()
	colocatedCPU := 0.0
	if cfg.DisaggregatedPreprocess {
		tokens := float64(perRank) * float64(spec.Model.SeqLen)
		bd.PreprocessStall = (tokens*2/spec.Cluster.CrossNodeBandwidthPerGPU() + preprocessFetchLatency) * ppFactor
	} else {
		for d := 0; d < dp; d++ {
			stall := cfg.PreprocessCost.NodeStallSeconds(p.batch[d*perRank : (d+1)*perRank])
			colocatedCPU = math.Max(colocatedCPU, stall)
		}
		colocatedCPU *= ppFactor
	}

	// Reduce the rank outcomes in rank order.
	worstPipe, bestPipe := 0.0, math.Inf(1)
	worstBubble := 0.0
	for d := range outcomes {
		if outcomes[d].err != nil {
			return IterationStats{}, outcomes[d].err
		}
		if outcomes[d].iterTime > worstPipe {
			worstPipe = outcomes[d].iterTime
			worstBubble = outcomes[d].bubble
		}
		bestPipe = math.Min(bestPipe, outcomes[d].iterTime)
	}
	bd.Pipeline = worstPipe

	// Co-located preprocessing: workers hide a bounded fraction of the
	// pipeline time; the rest of the CPU work stalls training, and
	// whatever does overlap still interferes with the host-side
	// training path.
	if !cfg.DisaggregatedPreprocess {
		hidden := math.Min(colocatedCPU, colocOverlapCapacity*worstPipe)
		bd.PreprocessStall = (colocatedCPU - hidden) + colocInterference*hidden
	}

	// Gradient synchronisation (ZeRO-1) per module, concurrent on
	// disjoint GPU sets: the slowest exposed sync gates the iteration.
	bd.GradSync = r.gradSync()

	// Optimizer step: memory-bound update of the local shard.
	bd.Optimizer = r.optimizerStep()

	// Asynchronous checkpointing back-pressure.
	if r.ckpt != nil && cfg.CheckpointEvery > 0 && p.iter > 0 && p.iter%cfg.CheckpointEvery == 0 {
		state := []byte(fmt.Sprintf("iter-%d", p.iter))
		if err := r.ckpt.Save(dfs.Checkpoint{Step: p.iter, State: state}); err != nil {
			return IterationStats{}, err
		}
		ckptSeconds := r.checkpointSeconds()
		budget := float64(cfg.CheckpointEvery) * worstPipe
		if ckptSeconds > budget {
			bd.CheckpointStall = ckptSeconds - budget
		}
	}

	flops := r.iterationFLOPs(p.batch)
	total := bd.Total()
	stats := IterationStats{
		Index:           p.iter,
		Breakdown:       bd,
		BubbleFrac:      worstBubble,
		StragglerSpread: (worstPipe - bestPipe) / math.Max(worstPipe, 1e-12),
		FLOPs:           flops,
		MFU:             metrics.MFU(flops, cfg.Plan.TotalGPUs(), spec.Cluster.GPU.PeakFLOPS, total),
		Perturbed:       !pert.Steady(),
	}
	r.emitTrace(stats, outcomes)
	return stats, nil
}

// emitTrace appends the iteration's timeline to the configured trace:
// the serial phases on pid 0, every rank's pipeline ops on pid d+1
// (tid = stage), all offset by the run's wall-clock cursor.
func (r *Runtime) emitTrace(stats IterationStats, outcomes []rankOutcome) {
	tr := r.cfg.Trace
	if tr == nil {
		return
	}
	bd := stats.Breakdown
	t := r.clock
	if bd.PreprocessStall > 0 {
		tr.Complete("preprocess", "data", 0, 0, t, bd.PreprocessStall)
	}
	pipeStart := t + bd.PreprocessStall
	for d, out := range outcomes {
		for _, op := range out.ops {
			tr.Complete(r.opName(op.Kind, op.MB), "pipeline", d+1, op.Stage, pipeStart+op.Start, op.End-op.Start)
		}
	}
	cur := pipeStart + bd.Pipeline
	for _, phase := range []struct {
		name string
		dur  float64
	}{
		{"grad-sync", bd.GradSync},
		{"optimizer", bd.Optimizer},
		{"checkpoint-stall", bd.CheckpointStall},
	} {
		if phase.dur > 0 {
			tr.Complete(phase.name, "runtime", 0, 0, cur, phase.dur)
		}
		cur += phase.dur
	}
	r.clock += bd.Total()
}

// opName returns the trace event name for a pipeline op ("F3", "B0"),
// cached per (kind, microbatch) — the per-event Sprintf was a top
// allocation site in traced runs.
func (r *Runtime) opName(kind pipeline.OpKind, mb int) string {
	names := &r.opNames[kind]
	for len(*names) <= mb {
		*names = append(*names, fmt.Sprintf("%s%d", kind, len(*names)))
	}
	return (*names)[mb]
}

// workers resolves the rank-worker pool size.
func (r *Runtime) workers() int {
	if r.cfg.Parallelism >= 1 {
		return r.cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// outcomes returns the per-rank outcome slots for one iteration,
// reused across iterations (they are serial) and fully overwritten —
// every slot is assigned by exactly one runRank before the reduce
// reads it.
func (r *Runtime) outcomes(n int) []rankOutcome {
	if cap(r.outcomesBuf) < n {
		r.outcomesBuf = make([]rankOutcome, n)
	}
	return r.outcomesBuf[:n]
}

// iterationConcurrent executes one prepared iteration with rank
// workers fanned out over the bounded pool.
func (r *Runtime) iterationConcurrent(p preparedBatch) (IterationStats, error) {
	if p.err != nil {
		return IterationStats{}, p.err
	}
	pert := scenario.At(r.cfg.Scenario, p.iter)
	p2p := r.iterP2P(pert)
	outcomes := r.outcomes(len(p.ranks))
	workers := r.workers()
	if workers > len(p.ranks) {
		workers = len(p.ranks)
	}
	if workers <= 1 {
		for d := range p.ranks {
			outcomes[d] = r.runRank(d, p.ranks[d], p2p, pert)
		}
		return r.finishIteration(p, pert, outcomes)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				d := int(cursor.Add(1)) - 1
				if d >= len(p.ranks) {
					return
				}
				outcomes[d] = r.runRank(d, p.ranks[d], p2p, pert)
			}
		}()
	}
	wg.Wait()
	return r.finishIteration(p, pert, outcomes)
}

// iterationSequential is the pinned serial path: the same stages, run
// inline on the calling goroutine.
func (r *Runtime) iterationSequential(p preparedBatch) (IterationStats, error) {
	if p.err != nil {
		return IterationStats{}, p.err
	}
	pert := scenario.At(r.cfg.Scenario, p.iter)
	p2p := r.iterP2P(pert)
	outcomes := r.outcomes(len(p.ranks))
	for d := range p.ranks {
		outcomes[d] = r.runRank(d, p.ranks[d], p2p, pert)
	}
	return r.finishIteration(p, pert, outcomes)
}

// RunIteration executes one training iteration on the concurrent
// engine and returns its stats.
func (r *Runtime) RunIteration(iter int) (IterationStats, error) {
	return r.iterationConcurrent(r.prepare(iter))
}

// RunIterationSequential is the single-threaded reference
// implementation, kept as the equivalence and benchmarking baseline
// for the concurrent engine (mirroring PlanDistTrainSequential): the
// concurrent path must return byte-identical stats at any worker
// count.
func (r *Runtime) RunIterationSequential(iter int) (IterationStats, error) {
	return r.iterationSequential(r.prepare(iter))
}

// Run executes n iterations on the concurrent engine and aggregates.
// The async data service prefetches iteration i+1's batch and
// Algorithm 1 assignment while iteration i trains; scenario-injected
// node failures trigger checkpoint-restore recovery with the lost
// iterations re-executed.
func (r *Runtime) Run(n int) (*Result, error) {
	return r.runLoop(n, r.iterationConcurrent, true)
}

// RunSequential is the pinned serial counterpart of Run: no rank
// workers, no prefetch. Byte-identical results; the benchmark
// baseline.
func (r *Runtime) RunSequential(n int) (*Result, error) {
	return r.runLoop(n, r.iterationSequential, false)
}

// runLoop drives a Job to completion: the loop body lives in
// (*Job).Step so the fleet runtime can interleave many jobs over one
// shared cluster; a standalone run is simply the 1-job schedule.
func (r *Runtime) runLoop(n int, step func(preparedBatch) (IterationStats, error), prefetch bool) (*Result, error) {
	j, err := r.newJob(n, step, prefetch)
	if err != nil {
		return nil, err
	}
	for !j.Done() {
		if err := j.Step(); err != nil {
			return nil, err
		}
	}
	return j.Finish(), nil
}

// recoverFromFailure finds the resume point after a node failure. The
// checkpoint writer is the paper's dedicated process (§6): it survives
// training-node failures, so in-flight saves complete before the
// restore reads the newest checkpoint. Without checkpointing (or
// before the first save) training restarts from iteration 0.
func (r *Runtime) recoverFromFailure() (resume int, restoreSeconds float64) {
	if r.ckpt == nil {
		return 0, 0
	}
	r.ckpt.Flush()
	ck, d, err := r.ckpt.LatestWithCost()
	if err != nil {
		return 0, 0
	}
	return ck.Step + 1, d
}

// checkPlan reports whether a controller-proposed plan can execute
// under the runtime's spec.
func (r *Runtime) checkPlan(p *orchestrator.Plan) error {
	if p == nil {
		return fmt.Errorf("trainer: nil reconfiguration plan")
	}
	lm := p.Modules[model.Backbone].Config
	if lm.DP < 1 || lm.PP < 1 {
		return fmt.Errorf("trainer: reconfiguration plan has degenerate backbone config %v", lm.String())
	}
	if bs := r.cfg.Spec.GlobalBatch; bs%(lm.DP*r.cfg.Spec.Microbatch) != 0 {
		return fmt.Errorf("trainer: reconfiguration plan DP_lm=%d * M=%d does not divide BS=%d",
			lm.DP, r.cfg.Spec.Microbatch, bs)
	}
	return nil
}

// reconfigure applies a checked controller plan switch at the boundary
// before iteration iter: price the switch — a synchronous full
// checkpoint write under the old geometry plus a restore read under
// the new one, the PR recovery machinery without any lost work —
// persist a real checkpoint when checkpointing is on (so a later
// failure resumes past the switch), and rebuild the runtime's stage
// geometry.
func (r *Runtime) reconfigure(p *orchestrator.Plan, iter int) (float64, error) {
	lm := p.Modules[model.Backbone].Config
	down := r.checkpointSeconds() // write: the outgoing geometry streams its state
	if r.ckpt != nil && iter > 0 {
		state := []byte(fmt.Sprintf("reconfig-%d", iter-1))
		if err := r.ckpt.Save(dfs.Checkpoint{Step: iter - 1, State: state}); err != nil {
			return 0, err
		}
		// The switch is synchronous: state must be durable before the
		// restart, unlike the asynchronous steady-state checkpoints.
		r.ckpt.Flush()
	}
	r.cfg.Plan = p
	r.stages = 1 + lm.PP + 1
	r.genStage = r.stages - 1
	r.p2p = r.buildP2P()
	r.nameRankLanes(lm.DP)
	down += r.restoreSeconds() // read: the incoming geometry restores it
	return down, nil
}
