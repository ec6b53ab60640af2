package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/pipeline"
	"disttrain/internal/preprocess"
	"disttrain/internal/reorder"
)

// probeShape is what the layer probes run on: one global batch of the
// workload, a lease-sized spec and the plan the fleet runs it on, and
// every distinct spec the workload plans.
type probeShape struct {
	spec    orchestrator.Spec
	plan    *orchestrator.Plan
	samples []data.Sample
	specs   []orchestrator.Spec
}

// probeBudget is the least time one probe loop runs for.
const probeBudget = 60 * time.Millisecond

// maxSearchSpecs caps the plan-search probe on workloads that plan many
// shapes.
const maxSearchSpecs = 6

var sink float64

// timeLoop calls fn at least three times and until probeBudget has
// passed, records the loop as one span, and returns the mean time per
// call.
func (h *harness) timeLoop(name string, fn func() error) (time.Duration, error) {
	start := h.now()
	n := 0
	for n < 3 || h.now()-start < probeBudget {
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		n++
	}
	end := h.now()
	if h.spans != nil {
		h.spans.add(name, 0, start, end)
	}
	return (end - start) / time.Duration(n), nil
}

// rankMicrobatches builds one DP rank's microbatches at the plan's
// stage count: the encoder stage, the backbone's pipeline stages and
// the generator stage, each priced in TFLOPs from the sample's shape.
func rankMicrobatches(ps probeShape) ([]reorder.Microbatch, int) {
	m := ps.spec.Model
	freeze := ps.spec.Profiler.Options().Freeze
	lm := ps.plan.Modules[model.Backbone].Config
	stages := 1 + lm.PP + 1
	k := ps.spec.GlobalBatch / (lm.DP * ps.spec.Microbatch)
	mbs := make([]reorder.Microbatch, k)
	for j := range mbs {
		shape := ps.samples[j%len(ps.samples)].Shape()
		fwd := make([]float64, stages)
		bwd := make([]float64, stages)
		ef, eb := m.ModuleTrainFLOPs(model.Encoder, shape, freeze)
		bf, bb := m.ModuleTrainFLOPs(model.Backbone, shape, freeze)
		gf, gb := m.ModuleTrainFLOPs(model.Generator, shape, freeze)
		fwd[0], bwd[0] = ef/1e12, eb/1e12
		for s := 1; s <= lm.PP; s++ {
			fwd[s], bwd[s] = bf/1e12/float64(lm.PP), bb/1e12/float64(lm.PP)
		}
		fwd[stages-1], bwd[stages-1] = gf/1e12, gb/1e12
		mbs[j] = reorder.Microbatch{Index: j, Fwd: fwd, Bwd: bwd}
	}
	return mbs, stages
}

// runProbes times direct calls into the layers the fleet reaches only
// through private code: the FLOP cost model, the pipeline simulator,
// both reorder algorithms, a fresh-cache plan search per distinct spec
// and the preprocessing pixel path.
func runProbes(h *harness, ps probeShape) ([]Metric, error) {
	var out []Metric
	add := func(name, unit string, v float64) {
		out = append(out, Metric{Name: name, Unit: unit, Value: v})
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }

	m := ps.spec.Model
	freeze := ps.spec.Profiler.Options().Freeze
	shapes := make([]model.SampleShape, len(ps.samples))
	for i, s := range ps.samples {
		shapes[i] = s.Shape()
	}
	d, err := h.timeLoop("probe.model", func() error {
		for _, sh := range shapes {
			for _, mod := range model.Modules {
				f, b := m.ModuleTrainFLOPs(mod, sh, freeze)
				sink += f + b
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	add("model.flops_ns_per_sample", "ns", float64(d)/float64(len(shapes)))

	mbs, stages := rankMicrobatches(ps)
	work := pipeline.Work{Fwd: make([][]float64, stages), Bwd: make([][]float64, stages)}
	for s := 0; s < stages; s++ {
		work.Fwd[s] = make([]float64, len(mbs))
		work.Bwd[s] = make([]float64, len(mbs))
		for j, mb := range mbs {
			work.Fwd[s][j], work.Bwd[s][j] = mb.Fwd[s], mb.Bwd[s]
		}
	}
	simulate := func() error {
		r, err := pipeline.Simulate(pipeline.OneFOneB, work)
		if err == nil {
			sink += r.IterTime
		}
		return err
	}
	if d, err = h.timeLoop("probe.pipeline", simulate); err != nil {
		return nil, err
	}
	add("pipeline.simulate_us", "us", us(d))
	add("pipeline.simulate_allocs", "count", testing.AllocsPerRun(10, func() { _ = simulate() }))

	dp := ps.plan.Modules[model.Backbone].Config.DP
	imageTokens := func(s data.Sample) float64 { return float64(s.TotalImageTokens()) }
	if d, err = h.timeLoop("probe.reorder.intra", func() error {
		_, _, err := reorder.IntraReorder(ps.samples, imageTokens, dp)
		return err
	}); err != nil {
		return nil, err
	}
	add("reorder.intra_us", "us", us(d))
	in := make([]reorder.Microbatch, len(mbs))
	inter := func() error {
		copy(in, mbs)
		_, err := reorder.InterReorder(in, nil)
		return err
	}
	if d, err = h.timeLoop("probe.reorder.inter", inter); err != nil {
		return nil, err
	}
	add("reorder.inter_us", "us", us(d))
	add("reorder.inter_allocs", "count", testing.AllocsPerRun(10, func() { _ = inter() }))

	var searches []float64
	specs := ps.specs
	if len(specs) > maxSearchSpecs {
		specs = specs[:maxSearchSpecs]
	}
	for _, spec := range specs {
		d, err := h.timeLoop("probe.orchestrator", func() error {
			cache := orchestrator.NewPlanCache(orchestrator.SearchOptions{Parallelism: h.procs})
			_, err := cache.Plan(context.Background(), spec)
			return err
		})
		if err != nil {
			return nil, err
		}
		searches = append(searches, ms(d))
	}
	add("orchestrator.search_ms_p50", "ms", median(searches))

	// The pixel path costs tens of milliseconds a sample at full
	// resolution, so the probe takes the batch's first two samples.
	few := ps.samples[:min(2, len(ps.samples))]
	if d, err = h.timeLoop("probe.preprocess", func() error {
		for _, s := range few {
			p, err := preprocess.ProcessSample(s)
			if err != nil {
				return err
			}
			sink += float64(len(p.TokenPayload))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	add("preprocess.sample_ms", "ms", ms(d)/float64(len(few)))
	return out, nil
}
