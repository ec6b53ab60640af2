package trainer

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"disttrain/internal/data"
	"disttrain/internal/preprocess"
	"disttrain/internal/scenario"
)

// BatchSource supplies the batch/assignment front-end: each
// iteration's global batch and its per-DP-rank split. The synthetic
// corpus front-end (corpus fetch + Algorithm 1 assignment) and the
// live TCP producer pool (PoolSource) both satisfy it, so the
// concurrent runtime sources microbatches from either without knowing
// which. Implementations must be deterministic in iter — the async
// data service prefetches and failure recovery re-fetches, and both
// must observe identical batches — and safe for concurrent use.
type BatchSource interface {
	// Assign returns iteration iter's global batch and its split across
	// dp data-parallel ranks (rank d owns ranks[d]; batch is the
	// concatenation in rank order).
	Assign(iter, dp int) (batch []data.Sample, ranks [][]data.Sample, err error)
}

// ProducerControl lets scenario producer-fail / producer-join events
// act on a live producer fleet mid-run. preprocess.Fleet implements it
// for in-process fleets; deployments with external producers supply
// their own (or leave Config.ProducerControl nil to ignore the
// events).
type ProducerControl interface {
	FailProducer(i int) error
	JoinProducer(i int) error
}

// corpusFrontEnd is the synthetic source: fetch the global batch from
// the corpus and run Algorithm 1's assignment locally — the historical
// front-end, now behind the BatchSource seam. Scenario workload-shift
// events transform the batch before assignment, so Algorithm 1
// balances the shifted costs — the data-distribution drift the
// re-planning controller watches for. (Live producer pools own their
// preprocessing and do not observe scenarios.)
type corpusFrontEnd struct{ r *Runtime }

func (c corpusFrontEnd) Assign(iter, dp int) ([]data.Sample, [][]data.Sample, error) {
	batch := c.r.cfg.Corpus.GlobalBatch(int64(iter), c.r.cfg.Spec.GlobalBatch)
	batch = scenario.At(c.r.cfg.Scenario, iter).ShiftBatch(batch)
	ranks, err := c.r.assign(batch)
	return batch, ranks, err
}

// fixedBatches serves a fixed list of global batches (iteration i
// gets batches[i mod len]) through the runtime's own Algorithm 1
// assignment — the trial front-end behind TrialMeanIterTime.
type fixedBatches struct {
	r       *Runtime
	batches [][]data.Sample
}

func (f fixedBatches) Assign(iter, dp int) ([]data.Sample, [][]data.Sample, error) {
	b := f.batches[iter%len(f.batches)]
	ranks, err := f.r.assign(b)
	return b, ranks, err
}

// TrialMeanIterTime prices one iteration per given global batch under
// cfg's plan with the sequential engine — no prefetch, no scenario, no
// traces, no checkpoints — and returns the mean iteration time. The
// re-planning controller scores candidate plans on the observed window
// with it: the full runtime cost model (reordering imperfection,
// straggler spread from data heterogeneity, exposed P2P, gradient
// sync, preprocessing stalls) routinely disagrees with the planner's
// analytic Eq. 1/Eq. 2 estimate on which of two close plans is
// faster, and the runtime model is the one MeanIterTime is measured
// in. Deterministic: same cfg and batches, same answer.
func TrialMeanIterTime(cfg Config, batches [][]data.Sample) (float64, error) {
	if len(batches) == 0 {
		return 0, errors.New("trainer: trial needs at least one batch")
	}
	cfg.Scenario = nil
	cfg.Controller = nil
	cfg.Trace = nil
	cfg.CheckpointEvery = 0
	cfg.Source = nil
	cfg.ProducerControl = nil
	cfg.PoolStats = nil
	cfg.GradientDim = 0
	rt, err := New(cfg)
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	rt.source = fixedBatches{r: rt, batches: batches}
	var sum float64
	for i := range batches {
		st, err := rt.RunIterationSequential(i)
		if err != nil {
			return 0, err
		}
		sum += st.Breakdown.Total()
	}
	return sum / float64(len(batches)), nil
}

// PoolSource sources each iteration's microbatches from a live
// disaggregated-preprocessing producer pool over TCP: every rank's
// preprocessed batch is fetched (with failover) through a tenant of a
// preprocess.Service, then mapped back to corpus samples by index so
// the runtime can price the iteration's compute. The producers own
// assignment and reordering; the trainer consumes their decisions —
// the §5 division of labour.
type PoolSource struct {
	// Pool is the job's tenant handle on a preprocess.Service: a
	// 1-tenant Service for a single job, the fleet-shared one in a
	// fleet.
	Pool *preprocess.Tenant
	// Samples recovers full sample metadata by index (*data.Corpus
	// satisfies it); producers ship token payloads, not the simulation
	// shapes.
	Samples preprocess.Source
}

// Assign implements BatchSource: rank fetches fan out concurrently,
// bounded by the pool's admission limit so the front-end itself never
// trips ErrPoolSaturated.
func (ps *PoolSource) Assign(iter, dp int) ([]data.Sample, [][]data.Sample, error) {
	if ps.Pool == nil || ps.Samples == nil {
		return nil, nil, fmt.Errorf("trainer: PoolSource needs both Pool and Samples")
	}
	// The tenant learns the current geometry before the fan-out:
	// elastic resizes reshape the producer-side split without
	// re-registering it.
	ps.Pool.SetDP(dp)
	ranks := make([][]data.Sample, dp)
	errs := make([]error, dp)
	workers := ps.Pool.MaxInflight()
	if workers > dp {
		workers = dp
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range next {
				ranks[d], errs[d] = ps.fetchRank(iter, d)
			}
		}()
	}
	for d := 0; d < dp; d++ {
		next <- d
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	perRank := len(ranks[0])
	batch := make([]data.Sample, 0, perRank*dp)
	for d := range ranks {
		if len(ranks[d]) != perRank {
			return nil, nil, fmt.Errorf("trainer: pool rank %d delivered %d samples, rank 0 delivered %d",
				d, len(ranks[d]), perRank)
		}
		batch = append(batch, ranks[d]...)
	}
	return batch, ranks, nil
}

func (ps *PoolSource) fetchRank(iter, d int) ([]data.Sample, error) {
	rb, err := ps.Pool.Fetch(context.Background(), int64(iter), d)
	if err != nil {
		return nil, err
	}
	var out []data.Sample
	for _, mb := range rb.Microbatches {
		for _, p := range mb {
			out = append(out, ps.Samples.Sample(p.SampleIndex))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("trainer: pool delivered empty batch for iter %d rank %d", iter, d)
	}
	return out, nil
}
