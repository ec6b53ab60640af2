package trainer

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"disttrain/internal/data"
	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/preprocess"
	"disttrain/internal/scenario"
)

// poolHarness wires a training spec to an in-process producer fleet:
// a shrunken (but LAION-shaped) corpus keeps the real pixel pipeline
// fast enough for the test cadence.
type poolHarness struct {
	spec   orchestrator.Spec
	plan   *orchestrator.Plan
	corpus *data.Corpus
	pcfg   preprocess.Config
}

func newPoolHarness(t *testing.T) *poolHarness {
	t.Helper()
	spec, _ := buildSpec(t, model.MLLM9B(), 4, 16, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	shrink := data.LAION400M()
	shrink.SeqLen = 1024
	shrink.MaxResolution = 128
	shrink.ResMedian = 80
	corpus, err := data.NewCorpus(shrink)
	if err != nil {
		t.Fatal(err)
	}
	dp := plan.Modules[model.Backbone].Config.DP
	return &poolHarness{
		spec: spec, plan: plan, corpus: corpus,
		pcfg: preprocess.Config{
			Source:      corpus,
			GlobalBatch: spec.GlobalBatch,
			DPSize:      dp,
			Microbatch:  spec.Microbatch,
			Workers:     8,
			Readahead:   1,
		},
	}
}

// tenant registers the one tenant of a fresh service over fleet at the
// plan's backbone DP width — the consumer a single job trains on.
func (h *poolHarness) tenant(t *testing.T, fleet *preprocess.Fleet, stats *metrics.PoolStats) *preprocess.Tenant {
	t.Helper()
	svc, err := preprocess.NewService(preprocess.ServiceConfig{
		Addrs:           fleet.Addrs(),
		FailureCooldown: 100 * time.Millisecond,
		DialTimeout:     500 * time.Millisecond,
		Stats:           stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	tn, err := svc.Register(preprocess.TenantConfig{Name: "only", DP: h.pcfg.DPSize})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// train runs iters iterations of a fresh runtime on cfg.
func train(t *testing.T, cfg Config, iters int) (*Result, error) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	return rt.Run(iters)
}

// run trains iters iterations against a fresh fleet of n producers,
// optionally under a scenario wired to kill/restore fleet members.
func (h *poolHarness) run(t *testing.T, producers, iters int, scenSpec string) (*Result, metrics.PoolSnapshot) {
	t.Helper()
	fleet, err := preprocess.StartFleet(h.pcfg, producers)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	stats := &metrics.PoolStats{}

	cfg := DistTrainConfig(h.spec, h.plan, h.corpus)
	cfg.Source = &PoolSource{Pool: h.tenant(t, fleet, stats), Samples: h.corpus}
	if scenSpec != "" {
		sc, err := scenario.Parse(scenSpec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scenario = sc
		cfg.ProducerControl = fleet
	}
	res, err := train(t, cfg, iters)
	if err != nil {
		t.Fatal(err)
	}
	return res, stats.Snapshot()
}

// The acceptance pin for elastic preprocessing: the concurrent trainer
// runs against a 3-producer pool, one producer is killed mid-run by a
// scenario event and later rejoins, and the results are identical to
// the single-producer reference — elasticity changes who serves, never
// what trains. The pool metrics must show the churn as failovers.
func TestRunWithProducerPoolSurvivesChurn(t *testing.T) {
	h := newPoolHarness(t)
	const iters = 6

	ref, refSnap := h.run(t, 1, iters, "")
	if refSnap.Failovers != 0 {
		t.Fatalf("reference run recorded %d failovers", refSnap.Failovers)
	}

	res, snap := h.run(t, 3, iters,
		"producer-fail:iter=2,producer=1; producer-join:iter=4,producer=1")

	if len(res.Iterations) != iters {
		t.Fatalf("iterations = %d, want %d", len(res.Iterations), iters)
	}
	if !reflect.DeepEqual(res.Iterations, ref.Iterations) {
		t.Errorf("3-producer run diverged from single-producer reference:\n got %+v\nwant %+v",
			res.Iterations, ref.Iterations)
	}
	if res.MFU != ref.MFU || res.TokensPerSec != ref.TokensPerSec {
		t.Errorf("aggregates diverged: MFU %g vs %g, tok/s %g vs %g",
			res.MFU, ref.MFU, res.TokensPerSec, ref.TokensPerSec)
	}
	if snap.Failovers < 1 {
		t.Errorf("producer churn recorded %d failovers, want >= 1", snap.Failovers)
	}
	if snap.Fetches == 0 || snap.MeanFetchSeconds < 0 {
		t.Errorf("implausible pool metrics: %+v", snap)
	}
	// No iteration is cost-perturbed: pool membership is not a cost
	// event.
	for _, it := range res.Iterations {
		if it.Perturbed {
			t.Errorf("iteration %d marked perturbed by pool churn", it.Index)
		}
	}
}

// With reordering off on both sides, the producer's block assignment
// is exactly the synthetic front-end's: a trainer sourcing batches
// through a 1-tenant preprocess.Service and the corpus-backed runtime
// must produce byte-identical results — the BatchSource seam and the
// tenant-keyed wire path are behaviour-preserving.
func TestPoolSourceMatchesSyntheticFrontEnd(t *testing.T) {
	h := newPoolHarness(t)
	h.pcfg.Reorder = false
	const iters = 4

	fleet, err := preprocess.StartFleet(h.pcfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	stats := &metrics.PoolStats{}

	base := DistTrainConfig(h.spec, h.plan, h.corpus)
	base.Reorder = false

	pooled := base
	pooled.Source = &PoolSource{Pool: h.tenant(t, fleet, stats), Samples: h.corpus}

	a, err := train(t, base, iters)
	if err != nil {
		t.Fatal(err)
	}
	b, err := train(t, pooled, iters)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Iterations, b.Iterations) {
		t.Errorf("pool-backed front-end diverged from synthetic:\n got %+v\nwant %+v",
			b.Iterations, a.Iterations)
	}
	if a.MFU != b.MFU || a.TokensPerSec != b.TokensPerSec {
		t.Errorf("aggregates diverged: MFU %g vs %g, tok/s %g vs %g",
			b.MFU, a.MFU, b.TokensPerSec, a.TokensPerSec)
	}
	snap := stats.Snapshot()
	if want := int64(iters * h.pcfg.DPSize); snap.Fetches != want {
		t.Errorf("service fetches = %d, want %d (one per iteration and rank)", snap.Fetches, want)
	}
	if snap.Failovers != 0 || snap.Rejections != 0 {
		t.Errorf("healthy 1-tenant service recorded failovers=%d rejections=%d",
			snap.Failovers, snap.Rejections)
	}
}

// A producer built for another global batch size delivers a batch the
// runtime would train in full while MFU and tokens/s still price
// Spec.GlobalBatch. The iteration must fail instead, naming both
// sizes.
func TestPoolSourceRejectsWrongBatchSize(t *testing.T) {
	h := newPoolHarness(t)
	h.pcfg.GlobalBatch = 2 * h.spec.GlobalBatch

	fleet, err := preprocess.StartFleet(h.pcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	cfg := DistTrainConfig(h.spec, h.plan, h.corpus)
	cfg.Source = &PoolSource{Pool: h.tenant(t, fleet, nil), Samples: h.corpus}

	_, err = train(t, cfg, 1)
	if err == nil {
		t.Fatalf("trained on a %d-sample batch with Spec.GlobalBatch %d", h.pcfg.GlobalBatch, h.spec.GlobalBatch)
	}
	for _, n := range []int{h.pcfg.GlobalBatch, h.spec.GlobalBatch} {
		if !strings.Contains(err.Error(), strconv.Itoa(n)) {
			t.Errorf("error %q does not name size %d", err, n)
		}
	}
}
