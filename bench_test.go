package disttrain

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`). Each
// BenchmarkFigNN/BenchmarkTableN executes the corresponding experiment
// harness and prints the regenerated rows once, so a bench run doubles
// as the reproduction log recorded in EXPERIMENTS.md. Component-level
// benchmarks at the bottom measure the paper's individual mechanisms
// (planner, reordering, pipeline simulation, broker fabric,
// preprocessing pixel work, StepCCL executor).

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"disttrain/internal/comm"
	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/pipeline"
	"disttrain/internal/preprocess"
	"disttrain/internal/profiler"
	"disttrain/internal/reorder"
	"disttrain/internal/solve"
	"disttrain/internal/stepccl"

	clusterpkg "disttrain/internal/cluster"
)

// benchScaleQuick selects the reduced workloads so the full bench suite
// completes in minutes; set to false to reproduce at the paper's full
// scale (1296 GPUs, GBS 1920, all four Fig. 17 configurations).
const benchScaleQuick = false

var printOnce sync.Map

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb, err := Experiment(id, benchScaleQuick)
		if err != nil {
			b.Fatal(err)
		}
		if _, printed := printOnce.LoadOrStore(id, true); !printed {
			fmt.Println(tb.Render())
		}
	}
}

// --- one benchmark per paper table/figure ---

func BenchmarkFig03ForwardTime(b *testing.B)        { runExperiment(b, "fig3") }
func BenchmarkFig05DataHeterogeneity(b *testing.B)  { runExperiment(b, "fig5") }
func BenchmarkFig13OverallMFU(b *testing.B)         { runExperiment(b, "fig13") }
func BenchmarkFig14OverallThroughput(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkFig15Orchestration(b *testing.B)      { runExperiment(b, "fig15") }
func BenchmarkFig16Reordering(b *testing.B)         { runExperiment(b, "fig16") }
func BenchmarkFig17PreprocessOverhead(b *testing.B) { runExperiment(b, "fig17") }
func BenchmarkFig18FrozenMFU(b *testing.B)          { runExperiment(b, "fig18") }
func BenchmarkFig19FrozenThroughput(b *testing.B)   { runExperiment(b, "fig19") }
func BenchmarkFig22StepCCL(b *testing.B)            { runExperiment(b, "fig22") }
func BenchmarkTable2BackboneConfigs(b *testing.B)   { runExperiment(b, "table2") }
func BenchmarkTable3PlannerOverhead(b *testing.B)   { runExperiment(b, "table3") }

// --- component ablations ---

func benchSpec(b *testing.B, m model.MLLM, nodes, bs int) orchestrator.Spec {
	b.Helper()
	cl := clusterpkg.Production(nodes)
	p, err := profiler.New(profiler.DefaultOptions(cl, m))
	if err != nil {
		b.Fatal(err)
	}
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Calibrate(corpus, 200); err != nil {
		b.Fatal(err)
	}
	return orchestrator.Spec{Cluster: cl, Model: m, GlobalBatch: bs, Microbatch: 1, Profiler: p, VPP: 1}
}

// BenchmarkPlannerDistTrain measures the adaptive orchestration
// algorithm itself (the Table 3 quantity) at the largest scale.
func BenchmarkPlannerDistTrain(b *testing.B) {
	spec := benchSpec(b, model.MLLM72B(), 162, 1920)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := orchestrator.PlanDistTrain(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanSearch compares the sequential reference enumeration
// against the parallel search engine at increasing worker counts, on
// the same largest-scale spec as BenchmarkPlannerDistTrain. On a
// multi-core machine the parallel variants should beat sequential
// wall-clock; the chosen plan is byte-identical in every variant.
func BenchmarkPlanSearch(b *testing.B) {
	spec := benchSpec(b, model.MLLM72B(), 162, 1920)
	// Warm the profiler's cost memo once so every variant measures
	// search work, not first-touch cache fills.
	if _, err := orchestrator.PlanDistTrainSequential(spec); err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := orchestrator.PlanDistTrainSequential(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	workerCounts := []int{2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		workerCounts = append(workerCounts, p)
	}
	for _, par := range workerCounts {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			opts := orchestrator.SearchOptions{Parallelism: par}
			for i := 0; i < b.N; i++ {
				if _, err := orchestrator.PlanDistTrainCtx(context.Background(), spec, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanMany measures the fleet-sweep path: four cluster shapes
// planned concurrently over one shared worker pool.
func BenchmarkPlanMany(b *testing.B) {
	specs := []orchestrator.Spec{
		benchSpec(b, model.MLLM9B(), 12, 96),
		benchSpec(b, model.MLLM9B(), 24, 96),
		benchSpec(b, model.MLLM15B(), 12, 96),
		benchSpec(b, model.MLLM15B(), 24, 96),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range orchestrator.PlanMany(context.Background(), specs, orchestrator.SearchOptions{}) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkIntraReorder measures Algorithm 1 on a production-sized
// global batch (1920 samples across 128 DP groups).
func BenchmarkIntraReorder(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sizes := make([]float64, 1920)
	items := make([]int, len(sizes))
	for i := range sizes {
		items[i] = i
		sizes[i] = rng.Float64()*10 + 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := reorder.IntraReorder(items, func(j int) float64 { return sizes[j] }, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterReorder measures Algorithm 2 over a 160-microbatch,
// 12-stage pipeline (the Megatron-72B shape).
func BenchmarkInterReorder(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const l, p = 160, 12
	mbs := make([]reorder.Microbatch, l)
	for i := range mbs {
		fwd := make([]float64, p)
		bwd := make([]float64, p)
		for s := range fwd {
			fwd[s] = 0.5 + rng.Float64()
			bwd[s] = 2 * fwd[s]
		}
		mbs[i] = reorder.Microbatch{Index: i, Fwd: fwd, Bwd: bwd}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reorder.InterReorder(mbs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleCost measures the per-sample FLOP cost model the
// trainer charges every sample of every iteration through: forward
// and backward FLOPs of all three modules for one corpus sample. The
// table variant is the compiled model.CostTable the runtime uses
// (allocation-free); formula re-derives the architecture through
// MLLM.ModuleTrainFLOPs, the definition the table is pinned to.
func BenchmarkSampleCost(b *testing.B) {
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		b.Fatal(err)
	}
	shapes := make([]model.SampleShape, 256)
	for i := range shapes {
		shapes[i] = corpus.Sample(int64(i)).Shape()
	}
	m := model.MLLM9B()
	table, err := model.NewCostTable(&m)
	if err != nil {
		b.Fatal(err)
	}
	freeze := model.FullTraining
	var sink float64
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := shapes[i%len(shapes)]
			for _, mod := range model.Modules {
				fwd, bwd := table.Train(mod, s, freeze)
				sink += fwd + bwd
			}
		}
	})
	b.Run("formula", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := shapes[i%len(shapes)]
			for _, mod := range model.Modules {
				fwd, bwd := m.ModuleTrainFLOPs(mod, s, freeze)
				sink += fwd + bwd
			}
		}
	})
	if sink == 0 {
		b.Fatal("no FLOPs priced")
	}
}

// BenchmarkPipelineSimulate measures the exact 1F1B simulator on the
// same shape.
func BenchmarkPipelineSimulate(b *testing.B) {
	w := pipeline.UniformWork(repeatF(1.0, 12), repeatF(2.0, 12), 160)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Simulate(pipeline.OneFOneB, w); err != nil {
			b.Fatal(err)
		}
	}
}

func repeatF(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// BenchmarkBrokerFabric measures the communication broker's
// concentrate/scatter throughput across a gcd(8,4)=4 broker fabric.
func BenchmarkBrokerFabric(b *testing.B) {
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload) * 2)) // 2 upstream parts per seq
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := comm.NewFabric(4, 8, 2, 4, 4, 8)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		const seqs = 64
		var wg sync.WaitGroup
		for d := 0; d < 8; d++ {
			for p := 0; p < 2; p++ {
				wg.Add(1)
				go func(d, p int) {
					defer wg.Done()
					for seq := uint64(d); seq < seqs; seq += 8 {
						f.Send(ctx, d, p, seq, payload) //nolint:errcheck
					}
				}(d, p)
			}
		}
		for d := 0; d < 4; d++ {
			for q := 0; q < 4; q++ {
				wg.Add(1)
				go func(d, q int) {
					defer wg.Done()
					for n := 0; n < seqs/4; n++ {
						f.Recv(ctx, d, q) //nolint:errcheck
					}
				}(d, q)
			}
		}
		if err := f.RunAll(ctx, seqs); err != nil {
			b.Fatal(err)
		}
		wg.Wait()
	}
}

// BenchmarkPreprocessSample measures the real pixel pipeline on a
// typical LAION-like sample.
func BenchmarkPreprocessSample(b *testing.B) {
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		b.Fatal(err)
	}
	s := corpus.Sample(7)
	b.SetBytes(s.PixelBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := preprocess.ProcessSample(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepCCLExecutor compares the strawman and overlapped
// executors on a realistic shard shape.
func BenchmarkStepCCLExecutor(b *testing.B) {
	e, err := stepccl.NewExecutor(8, 8, 64, 512, 512)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("strawman", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.RunStrawman()
		}
	})
	b.Run("overlapped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.RunOverlapped()
		}
	})
}

// BenchmarkWaterFill measures the convex subproblem solver that the
// adaptive algorithm calls per strategy combination.
func BenchmarkWaterFill(b *testing.B) {
	p := solve.WaterFillProblem{
		Weights: []float64{3.2, 120.5, 7.8},
		Lower:   []float64{1, 64, 1},
		Budget:  1296,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVPPAblation quantifies the §4.3 design choice: interleaved
// 1F1B (VPP) shrinks warm-up bubbles at the cost of chunked
// communication. Reported per chunk count on the Megatron-72B pipeline
// shape; the printed bubble fractions are the ablation result.
func BenchmarkVPPAblation(b *testing.B) {
	w := pipeline.UniformWork(repeatF(0.1, 12), repeatF(0.2, 12), 156)
	for _, chunks := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("vpp=%d", chunks), func(b *testing.B) {
			var bubble float64
			for i := 0; i < b.N; i++ {
				res, err := pipeline.SimulateVPP(w, chunks)
				if err != nil {
					b.Fatal(err)
				}
				bubble = res.MeanBubbleFraction()
			}
			b.ReportMetric(bubble*100, "bubble%")
		})
	}
}

// BenchmarkTrainSerialVsConcurrent compares the pinned sequential
// runtime (RunSequential: inline rank loop, no prefetch) against the
// concurrent engine (bounded rank-worker pool plus the async data
// service) at increasing worker counts, on the §7.2 ablation scale.
// Results are byte-identical in every variant (pinned by
// TestConcurrentRuntimeEquivalence), so the delta is pure wall-clock;
// on a multi-core machine the concurrent variants should at least
// match serial. Included in the `make ci` bench smoke.
func BenchmarkTrainSerialVsConcurrent(b *testing.B) {
	spec := benchSpec(b, model.MLLM9B(), 12, 96)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		b.Fatal(err)
	}
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		b.Fatal(err)
	}
	cfg := NewTrainConfig(spec, plan, corpus)
	const iters = 3
	// Warm the profiler memo so every variant measures runtime work.
	if _, err := TrainSequential(cfg, 1); err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := TrainSequential(cfg, iters); err != nil {
				b.Fatal(err)
			}
		}
	})
	workerCounts := []int{2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		workerCounts = append(workerCounts, p)
	}
	for _, par := range workerCounts {
		b.Run(fmt.Sprintf("concurrent-%d", par), func(b *testing.B) {
			c := cfg
			c.Parallelism = par
			for i := 0; i < b.N; i++ {
				if _, err := Train(c, iters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetThroughput sweeps the multi-tenant fleet runtime over
// 1/4/16/64 concurrent jobs — identical tenants on 2-node leases, so the
// shared plan cache collapses every run to a single §4.3 search — and
// reports aggregate training iterations per wall-clock second
// (iters/s) and per CPU second (cpu-iters/s). On a multi-core machine
// the aggregate wall rate should grow with the tenant count (cross-job
// parallelism on top of each job's own rank workers). Both metrics
// land in the `make bench-json` baseline; the `make bench-diff`
// regression gate compares calibration-normalized norm-iters/s
// because it stays stable when other tenants contend for the machine
// or CPU frequency drifts between runs.
//
// Iterations per job scale inversely with the job count (floor 2) so
// every sub-benchmark op performs comparable total work: at a uniform
// 2 iters the jobs=1 op finished in ~3ms of CPU and its measured rate
// jittered ±15% sample to sample, tripping the regression band, while
// the long jobs=16/64 ops held within ±5%.
func BenchmarkFleetThroughput(b *testing.B) {
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		b.Fatal(err)
	}
	for _, jobs := range []int{1, 4, 16, 64} {
		itersPerJob := max(2, 32/jobs)
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			spec := benchSpec(b, model.MLLM9B(), 2*jobs, 32)
			tmpl := NewTrainConfig(spec, nil, corpus)
			tmpl.Parallelism = 2 // rank workers per job; scaling comes from cross-job fan-out
			cfg := FleetConfig{Cluster: spec.Cluster}
			for j := 0; j < jobs; j++ {
				cfg.Jobs = append(cfg.Jobs, FleetJobSpec{
					Name: fmt.Sprintf("t%d", j), Train: tmpl,
					Iters: itersPerJob, MinNodes: 2, MaxNodes: 2,
				})
			}
			spinBefore := spinRate()
			b.ResetTimer()
			cpuStart := processCPUTime()
			for i := 0; i < b.N; i++ {
				res, err := RunFleet(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, jr := range res.Jobs {
					if jr.Err != nil {
						b.Fatal(jr.Err)
					}
				}
				if res.PlanSearches != 1 {
					b.Fatalf("identical tenants ran %d plan searches", res.PlanSearches)
				}
			}
			cpu := processCPUTime() - cpuStart
			b.StopTimer()
			spin := (spinBefore + spinRate()) / 2
			totalIters := float64(jobs * itersPerJob * b.N)
			b.ReportMetric(totalIters/b.Elapsed().Seconds(), "iters/s")
			if cpu > 0 {
				rate := totalIters / cpu.Seconds()
				b.ReportMetric(rate, "cpu-iters/s")
				if spin > 0 {
					b.ReportMetric(rate*refSpinRate/spin, "norm-iters/s")
				}
			}
		})
	}
}

// BenchmarkServiceThroughput measures the fleet-shared preprocessing
// tier end to end: K tenants multiplexing tenant-keyed fetches over
// one 2-producer service through the WFQ admission path and the real
// TCP wire protocol. Each op delivers one training iteration to every
// tenant (all DP ranks fetched concurrently), so the gated rate —
// tenant-iterations per CPU second, spin-normalized like the fleet
// sweep — is the tier's aggregate delivery rate, and allocs/op pins
// the per-iteration allocation budget of the shared fetch path
// (admission, failover ring, cache partition, wire round-trip) in the
// `make bench-diff` gate. The corpus is shrunken LAION (the pixel
// pipeline runs for real) so the number tracks multiplexing overhead,
// not image decode throughput.
func BenchmarkServiceThroughput(b *testing.B) {
	shrink := data.LAION400M()
	shrink.SeqLen = 512
	shrink.MaxResolution = 64
	shrink.ResMedian = 48
	corpus, err := data.NewCorpus(shrink)
	if err != nil {
		b.Fatal(err)
	}
	const dp = 2
	for _, tenants := range []int{1, 4} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			fleet, err := preprocess.StartFleet(preprocess.Config{
				Source:      corpus,
				GlobalBatch: 8,
				DPSize:      1,
				Microbatch:  1,
				Workers:     4,
				Readahead:   1,
			}, 2)
			if err != nil {
				b.Fatal(err)
			}
			defer fleet.Close()
			svc, err := preprocess.NewService(preprocess.ServiceConfig{
				Addrs:    fleet.Addrs(),
				Capacity: 2 * tenants * dp,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			handles := make([]*preprocess.Tenant, tenants)
			for i := range handles {
				handles[i], err = svc.Register(preprocess.TenantConfig{
					Name: fmt.Sprintf("t%d", i), MaxInflight: dp, DP: dp,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			spinBefore := spinRate()
			b.ReportAllocs()
			b.ResetTimer()
			cpuStart := processCPUTime()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, tenants*dp)
				for ti, h := range handles {
					for r := 0; r < dp; r++ {
						wg.Add(1)
						go func(slot int, h *preprocess.Tenant, rank int) {
							defer wg.Done()
							_, errs[slot] = h.Fetch(ctx, int64(i), rank)
						}(ti*dp+r, h, r)
					}
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			cpu := processCPUTime() - cpuStart
			b.StopTimer()
			spin := (spinBefore + spinRate()) / 2
			b.ReportMetric(float64(tenants*dp*b.N)/b.Elapsed().Seconds(), "fetches/s")
			totalIters := float64(tenants * b.N)
			if cpu > 0 {
				rate := totalIters / cpu.Seconds()
				b.ReportMetric(rate, "cpu-iters/s")
				if spin > 0 {
					b.ReportMetric(rate*refSpinRate/spin, "norm-iters/s")
				}
			}
		})
	}
}

// refSpinRate pins the nominal machine the normalized throughput is
// expressed against: norm-iters/s equals cpu-iters/s on a machine
// whose calibration spin runs at 1e9 ops per CPU second. The constant
// cancels in any baseline-vs-run ratio; it only sets the scale.
const refSpinRate = 1e9

var spinSink uint64

// spinRate measures the machine's sustained integer-op rate with a
// fixed ~70ms xorshift spin (CPU time, not wall clock). CPU frequency
// scaling and noisy-neighbor throttling move a single-core runner's
// cpu-iters/s by tens of percent between runs — uniformly across job
// counts — which is exactly the drift a regression gate must not fail
// on. Each fleet sample divides its rate by the mean of a spin run
// immediately before and immediately after its timed loop, so the
// calibration sees the same fast-or-throttled machine state as the
// sample it normalizes and the state cancels out of the reported
// norm-iters/s. (A single peak calibration per process does not work:
// best-of-N spins always find the machine's fast state even when the
// benchmark windows ran throttled, which left ±15% state drift in the
// normalized rate.)
func spinRate() float64 {
	const n = 1 << 25
	start := processCPUTime()
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	d := (processCPUTime() - start).Seconds()
	if d <= 0 {
		return 0
	}
	return n / d
}

// BenchmarkWarmPlanSearch quantifies the durable control plane: the
// cold variant pays a full §4.3 search per op (a fresh in-memory
// cache every time — the restart path without persistence), the warm
// variant serves the same spec through a fresh persistent cache
// instance over a populated on-disk store (the restart path with it).
// Every warm op asserts it ran zero searches and exactly one
// store-served warm hit, so the measured gap is the real
// load-and-decode path, not an accidental in-memory hit. Both
// variants land in the `make bench-json` baseline and the
// `make bench-diff` gate via spin-normalized norm-iters/s (one "iter"
// = one plan request). DISTTRAIN_PLAN_CACHE_DIR, when set, roots the
// warm store there instead of a temp dir — CI sets it to upload the
// populated cache directory as a build artifact.
func BenchmarkWarmPlanSearch(b *testing.B) {
	spec := benchSpec(b, model.MLLM9B(), 12, 96)
	opts := orchestrator.SearchOptions{Parallelism: 1}
	// Warm the profiler's cost memo so both variants measure search
	// vs load, not first-touch cost fills.
	want, err := orchestrator.PlanDistTrainSequential(spec)
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, op func() (*orchestrator.Plan, error)) {
		spinBefore := spinRate()
		b.ReportAllocs()
		b.ResetTimer()
		cpuStart := processCPUTime()
		for i := 0; i < b.N; i++ {
			got, err := op()
			if err != nil {
				b.Fatal(err)
			}
			if got.IterTime != want.IterTime {
				b.Fatalf("plan diverged from reference (%.6f vs %.6f)", got.IterTime, want.IterTime)
			}
		}
		cpu := processCPUTime() - cpuStart
		b.StopTimer()
		spin := (spinBefore + spinRate()) / 2
		if cpu > 0 {
			rate := float64(b.N) / cpu.Seconds()
			b.ReportMetric(rate, "cpu-iters/s")
			if spin > 0 {
				b.ReportMetric(rate*refSpinRate/spin, "norm-iters/s")
			}
		}
	}

	b.Run("cold", func(b *testing.B) {
		run(b, func() (*orchestrator.Plan, error) {
			return NewPlanCache(opts).Plan(context.Background(), spec)
		})
		// Both variants gate their rate as a wholesale-collapse
		// detector, self-widened to ±60% via the band% metric (see
		// disttrain-benchjson): the cold search allocates ~440KB/op so
		// GC scheduling moves its run-to-run median ~20%, and the warm
		// lookup is syscall-bound I/O jitter — neither is noise that
		// spin normalization cancels. The real tripwire for both is
		// the deterministic allocs/op count: a warm path falling back
		// to a cold search jumps it by two orders of magnitude.
		// Reported after run(): ResetTimer inside it deletes user
		// metrics.
		b.ReportMetric(60, "band%")
	})
	b.Run("warm", func(b *testing.B) {
		dir := os.Getenv("DISTTRAIN_PLAN_CACHE_DIR")
		if dir == "" {
			dir = b.TempDir()
		}
		st, err := NewDiskPlanStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewPersistentPlanCache(opts, st).Plan(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
		run(b, func() (*orchestrator.Plan, error) {
			c := NewPersistentPlanCache(opts, st)
			plan, err := c.Plan(context.Background(), spec)
			if err == nil && (c.Searches() != 0 || c.WarmHits() != 1) {
				return nil, fmt.Errorf("warm op ran %d searches, %d warm hits; want 0 and 1", c.Searches(), c.WarmHits())
			}
			return plan, err
		})
		// Same collapse-detector band as the cold variant; see above.
		b.ReportMetric(60, "band%")
	})
}

// BenchmarkTrainerIteration measures one full end-to-end DistTrain
// iteration at the ablation scale.
func BenchmarkTrainerIteration(b *testing.B) {
	spec := benchSpec(b, model.MLLM9B(), 12, 96)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		b.Fatal(err)
	}
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		b.Fatal(err)
	}
	cfg := NewTrainConfig(spec, plan, corpus)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdAdmissionStorm measures admission under the worst-case
// cold burst: 16 jobs with distinct batch geometries — 16 distinct
// plan fingerprints — all arriving at round 0 against a fresh private
// plan cache, so every op pays 16 cold §4.3 searches. The inline
// variant (Planners 0, its name kept because it is a gated baseline
// name) is pipelined admission at zero planning latency: each cold
// search runs in the admitting round, one spec at a time; the
// pipelined variant batches the misses into shared waves on a
// 4-planner pool. Both run the same sample-bounded search. The gated
// rate is cpu-iters/s — training iterations per process-CPU second —
// so neither variant can win by overlap hiding wall-clock. The
// deterministic tripwire is allocs/op (one-sided, like every fleet
// gate); the rate band self-widens to ±60% because 16 cold searches
// allocate enough per op for GC scheduling to move medians.
func BenchmarkColdAdmissionStorm(b *testing.B) {
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		b.Fatal(err)
	}
	const jobs = 16
	const itersPerJob = 2
	spec := benchSpec(b, model.MLLM9B(), 2*jobs, 32)
	cfgFor := func(planners int) FleetConfig {
		cfg := FleetConfig{Cluster: spec.Cluster, Planners: planners}
		for j := 0; j < jobs; j++ {
			js := spec
			js.GlobalBatch = 32 + 8*j // distinct fingerprint, shared calibration
			tmpl := NewTrainConfig(js, nil, corpus)
			tmpl.Parallelism = 2
			cfg.Jobs = append(cfg.Jobs, FleetJobSpec{
				Name: fmt.Sprintf("t%d", j), Train: tmpl,
				Iters: itersPerJob, MinNodes: 2, MaxNodes: 2,
			})
		}
		return cfg
	}
	for _, mode := range []struct {
		name     string
		planners int
	}{{"inline", 0}, {"pipelined", 4}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := cfgFor(mode.planners)
			spinBefore := spinRate()
			b.ReportAllocs()
			b.ResetTimer()
			cpuStart := processCPUTime()
			for i := 0; i < b.N; i++ {
				res, err := RunFleet(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, jr := range res.Jobs {
					if jr.Err != nil {
						b.Fatal(jr.Err)
					}
				}
				if res.PlanSearches != jobs {
					b.Fatalf("storm ran %d plan searches, want %d cold", res.PlanSearches, jobs)
				}
			}
			cpu := processCPUTime() - cpuStart
			b.StopTimer()
			spin := (spinBefore + spinRate()) / 2
			totalIters := float64(jobs * itersPerJob * b.N)
			b.ReportMetric(totalIters/b.Elapsed().Seconds(), "iters/s")
			if cpu > 0 {
				rate := totalIters / cpu.Seconds()
				b.ReportMetric(rate, "cpu-iters/s")
				if spin > 0 {
					b.ReportMetric(rate*refSpinRate/spin, "norm-iters/s")
				}
			}
			// Self-widened collapse detector; allocs/op is the tight
			// gate (reported after the run: ResetTimer deletes user
			// metrics).
			b.ReportMetric(60, "band%")
		})
	}
}

// BenchmarkTraceMergeWrite measures the fleet trace export path: 64
// per-job traces of the fleet-trace-export shape (a 9b tenant, 40
// iterations on a 2-node lease, batch 32) folded into one fleet trace
// by AppendOffset and encoded by WriteJSON. Every tenant of that
// workload runs the same plan on the same batches, so one recorded job
// timeline, copied into 64 private traces, is each tenant's trace.
func BenchmarkTraceMergeWrite(b *testing.B) {
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		b.Fatal(err)
	}
	const tenants, iters = 64, 40
	spec := benchSpec(b, model.MLLM9B(), 2, 32)
	cfg := FleetConfig{Cluster: spec.Cluster, Trace: true, Jobs: []FleetJobSpec{{
		Name: "t0", Train: NewTrainConfig(spec, nil, corpus),
		Iters: iters, MinNodes: 2, MaxNodes: 2,
	}}}
	res, err := RunFleet(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if jr := res.Jobs[0]; jr.Err != nil {
		b.Fatal(jr.Err)
	}
	jobs := make([]*Trace, tenants)
	for j := range jobs {
		jobs[j] = NewTrace()
		jobs[j].AppendOffset(res.Jobs[0].Trace, 0, "")
	}
	sched := NewTrace()
	sched.NameProcess(0, "scheduler")
	for j := range jobs {
		sched.Instant("job-arrive", "fleet", 0, 0, map[string]any{"job": j, "name": fmt.Sprintf("t%d", j)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := NewTrace()
		base := 0
		for j, tr := range jobs {
			merged.AppendOffset(tr, base, fmt.Sprintf("t%d/", j))
			base += tr.MaxPID() + 1
		}
		merged.AppendOffset(sched, base, "fleet/")
		if err := merged.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tenants*jobs[0].Len()), "events/op")
}
