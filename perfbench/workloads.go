package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/fleet"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/preprocess"
	"disttrain/internal/profiler"
	"disttrain/internal/scenario"
	"disttrain/internal/store"
	"disttrain/internal/trainer"
)

// fixture is one workload after set-up: it computes its oracles, runs
// measured passes, checks each finished pass, and probes its layers
// at the workload's own shapes.
type fixture interface {
	// prepare computes the oracles that do not depend on what a pass
	// plans; it runs after set-up timing stops. Oracles keyed by the
	// shapes a pass leases are computed in check, on first sight.
	prepare(h *harness) error
	// pass runs one measured pass through h.runFleet.
	pass(h *harness) error
	// check verifies the pass h just finished against the oracles.
	check(h *harness, p *passRec) error
	// shape is what the layer probes run on.
	shape() probeShape
}

type workload struct {
	name string
	// setup builds the corpus, calibrates profilers and assembles the
	// job templates; it is what setup_s times.
	setup func(h *harness, st *setupTimes) (fixture, error)
}

type setupTimes struct {
	corpus, calibrate time.Duration
}

var workloads = []workload{
	{
		// 256 identical 9b tenants, one plan search: the trainer hot
		// path (cost model, Simulate, reorder) does nearly all the work.
		name: "steady-fleet",
		setup: func(h *harness, st *setupTimes) (fixture, error) {
			return newSteady(h, st, 256, 40, false)
		},
	},
	{
		// 9b/15b jobs with elastic leases, herds, departures, node churn
		// and a preempt storm over a cold, then restarted, on-disk plan
		// store: every admission path and both sides of the store.
		name: "admission-churn",
		setup: func(h *harness, st *setupTimes) (fixture, error) {
			return newChurn(h, st)
		},
	},
	{
		// 8 tenants fetch real preprocessed batches over loopback TCP
		// from 2 shared producers, one of which fails and rejoins.
		name: "shared-preproc",
		setup: func(h *harness, st *setupTimes) (fixture, error) {
			return newPreproc(h, st)
		},
	},
	{
		// The steady shape at 64 tenants with the fleet trace on and
		// written to a file: isolates what tracing costs.
		name: "fleet-trace-export",
		setup: func(h *harness, st *setupTimes) (fixture, error) {
			return newSteady(h, st, 64, 40, true)
		},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// corpusSpec is LAION-400M with its seed taken from the run's seed, so
// --seed is the only source of variation in the data.
func corpusSpec(seed int64) data.Spec {
	sp := data.LAION400M()
	sp.Seed = seed
	return sp
}

// buildCorpus makes the corpus and materialises the first n samples,
// which covers every batch the workload reads.
func buildCorpus(sp data.Spec, n int, st *setupTimes) (*data.Corpus, error) {
	t0 := time.Now()
	c, err := data.NewCorpus(sp)
	if err != nil {
		return nil, err
	}
	c.Batch(0, n)
	st.corpus += time.Since(t0)
	return c, nil
}

const calibrationSamples = 300

// template calibrates a profiler for the model on the fleet cluster
// and returns the production DistTrain configuration over it, with
// one pipeline worker per tenant.
func template(cl cluster.Cluster, m model.MLLM, batch int, corpus *data.Corpus, st *setupTimes) (trainer.Config, error) {
	t0 := time.Now()
	p, err := profiler.New(profiler.DefaultOptions(cl, m))
	if err != nil {
		return trainer.Config{}, err
	}
	if err := p.Calibrate(corpus, calibrationSamples); err != nil {
		return trainer.Config{}, err
	}
	st.calibrate += time.Since(t0)
	spec := orchestrator.Spec{Cluster: cl, Model: m, GlobalBatch: batch, Microbatch: 1, Profiler: p, VPP: 1}
	cfg := trainer.DistTrainConfig(spec, nil, corpus)
	cfg.Parallelism = 1
	return cfg, nil
}

// leaseSpec is the spec a tenant's plan is cached under for a lease:
// its template scoped to the lease's placement under the shaped
// priority scheduler, or to the lease's size under count-based ones.
func leaseSpec(tmpl orchestrator.Spec, base cluster.Cluster, nodes []int, shaped bool) orchestrator.Spec {
	l := cluster.NewLease(nodes...)
	s := tmpl
	if shaped {
		s.Cluster = l.Placed(base)
		s.Placement = l.Shape()
	} else {
		s.Cluster = l.Subcluster(base)
	}
	s.MaxGPUs = 0
	return s
}

// jobOutcome classifies a tenant: the number of iterations it
// completed, and whether it failed (errored, or ended short of its
// iterations without departing).
func jobOutcome(jr fleet.JobResult, iters int) (done int, failed bool) {
	if jr.Result != nil {
		done = len(jr.Result.Iterations) - jr.Result.ReExecutedIterations
	}
	return done, jr.Err != nil || (!jr.Departed && done < iters)
}

// --- steady-fleet and fleet-trace-export ---

type steady struct {
	tenants, iters, leaseNodes int
	trace                      bool
	base                       cluster.Cluster
	tmpl                       trainer.Config
	jobs                       []fleet.JobSpec

	// ref is the oracle every tenant's result must equal: a standalone
	// sequential run on a lease-sized cluster (steady), or the same
	// fleet run with tracing off (trace export).
	ref       []*trainer.Result
	leaseSpec orchestrator.Spec
	plan      *orchestrator.Plan

	tracePath   string
	traceDigest [sha256.Size]byte
	traceSize   int64
}

func newSteady(h *harness, st *setupTimes, tenants, iters int, trace bool) (*steady, error) {
	const batch, leaseNodes = 32, 2
	s := &steady{tenants: tenants, iters: iters, leaseNodes: leaseNodes, trace: trace}
	s.base = cluster.Production(tenants * leaseNodes)
	corpus, err := buildCorpus(corpusSpec(h.seed), iters*batch, st)
	if err != nil {
		return nil, err
	}
	if s.tmpl, err = template(s.base, model.MLLM9B(), batch, corpus, st); err != nil {
		return nil, err
	}
	for i := 0; i < tenants; i++ {
		s.jobs = append(s.jobs, fleet.JobSpec{
			Name: fmt.Sprintf("t%d", i), Train: s.tmpl, Iters: iters,
			MinNodes: leaseNodes, MaxNodes: leaseNodes,
		})
	}
	s.tracePath = filepath.Join(h.dir, "fleet-trace.json")
	return s, nil
}

func (s *steady) config(h *harness, traceOn bool) fleet.Config {
	return fleet.Config{Cluster: s.base, Jobs: s.jobs, Policy: fleet.FairShare, Workers: h.procs, Trace: traceOn}
}

func (s *steady) prepare(h *harness) error {
	nodes := make([]int, s.leaseNodes)
	for i := range nodes {
		nodes[i] = i
	}
	s.leaseSpec = leaseSpec(s.tmpl.Spec, s.base, nodes, false)
	plan, err := orchestrator.PlanDistTrainSequential(s.leaseSpec)
	if err != nil {
		return fmt.Errorf("oracle plan: %w", err)
	}
	s.plan = plan
	if s.trace {
		res, err := fleet.Run(s.config(h, false))
		if err != nil {
			return fmt.Errorf("untraced reference run: %w", err)
		}
		for _, jr := range res.Jobs {
			s.ref = append(s.ref, jr.Result)
		}
		return nil
	}
	cfg := s.tmpl
	cfg.Spec = s.leaseSpec
	cfg.Plan = plan
	rt, err := trainer.New(cfg)
	if err != nil {
		return err
	}
	defer rt.Close()
	res, err := rt.RunSequential(s.iters)
	if err != nil {
		return fmt.Errorf("sequential reference run: %w", err)
	}
	for i := 0; i < s.tenants; i++ {
		s.ref = append(s.ref, res)
	}
	return nil
}

func (s *steady) pass(h *harness) error {
	fr, err := h.runFleet(s.config(h, s.trace), nil)
	if err != nil {
		return err
	}
	if !s.trace {
		return nil
	}
	t0 := h.now()
	size, err := writeTrace(fr.res, s.tracePath)
	if err != nil {
		return err
	}
	p := h.cur
	p.traceStart, p.traceWrite = t0, h.now()-t0
	p.traceEvents = fr.res.Trace.Len()
	p.traceBytes = size
	h.sampleHeap()
	return nil
}

// writeTrace writes the merged fleet trace through Trace.WriteJSON.
func writeTrace(res *fleet.Result, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := res.Trace.WriteJSON(bw); err != nil {
		f.Close()
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return fi.Size(), f.Close()
}

func (s *steady) check(h *harness, p *passRec) error {
	fr := p.runs[0]
	if fr.leaseErr != nil {
		return fr.leaseErr
	}
	res := fr.res
	if len(res.Jobs) != s.tenants {
		return fmt.Errorf("%d tenants reported, want %d", len(res.Jobs), s.tenants)
	}
	if res.PlanSearches != 1 {
		return fmt.Errorf("%d identical tenants ran %d plan searches, want 1", s.tenants, res.PlanSearches)
	}
	for i, jr := range res.Jobs {
		if jr.Err != nil {
			return fmt.Errorf("tenant %s: %w", jr.Name, jr.Err)
		}
		if !reflect.DeepEqual(jr.Result, s.ref[i]) {
			return fmt.Errorf("tenant %s: result differs from the reference run", jr.Name)
		}
	}
	if s.trace {
		return s.checkTraceFile(res.Trace.Len(), p.traceBytes)
	}
	return nil
}

// checkTraceFile parses the first written trace in full and counts its
// events; later passes must write the same bytes, which the
// determinism contract promises.
func (s *steady) checkTraceFile(events int, size int64) error {
	f, err := os.Open(s.tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	hash := sha256.New()
	if s.traceSize == 0 {
		var doc struct {
			TraceEvents []struct {
				Ph string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.NewDecoder(io.TeeReader(f, hash)).Decode(&doc); err != nil {
			return fmt.Errorf("trace file does not parse: %w", err)
		}
		if _, err := io.Copy(hash, f); err != nil {
			return err
		}
		if len(doc.TraceEvents) != events {
			return fmt.Errorf("trace file holds %d events, Trace.Len() is %d", len(doc.TraceEvents), events)
		}
		copy(s.traceDigest[:], hash.Sum(nil))
		s.traceSize = size
		return nil
	}
	if _, err := io.Copy(hash, f); err != nil {
		return err
	}
	var d [sha256.Size]byte
	copy(d[:], hash.Sum(nil))
	if size != s.traceSize || d != s.traceDigest {
		return errors.New("trace file differs from the first pass's")
	}
	return nil
}

func (s *steady) shape() probeShape {
	return probeShape{
		spec:    s.leaseSpec,
		plan:    s.plan,
		samples: s.tmpl.Corpus.GlobalBatch(0, s.tmpl.Spec.GlobalBatch),
		specs:   []orchestrator.Spec{s.leaseSpec},
	}
}

// --- admission-churn ---

type churn struct {
	base     cluster.Cluster
	variants []churnVariant

	// Oracle plans by cache fingerprint, computed by the sequential
	// reference search the first time a shape shows up.
	plans map[string]oraclePlan
	specs []orchestrator.Spec // every distinct feasible shape planned so far
	dirs  []string            // the current pass's on-disk stores
}

// churnVariant is one arrival schedule over the churn templates.
type churnVariant struct {
	jobs     []fleet.JobSpec
	scenario scenario.Scenario
}

type oraclePlan struct {
	plan *orchestrator.Plan
	err  error
}

const (
	churnNodes = 24
	// churnProbe is the template the layer probes run on.
	churnProbe = 3
)

// churnTemplates is the fixed job mix and arrival schedule. Specs 0-2
// are cloned by herd, job-arrive and storm events; 3-5 carry a step
// probe when traced.
var churnTemplates = []struct {
	m                  func() model.MLLM
	batch, iters       int
	minNodes, maxNodes int
	arrive             int
	class              fleet.Class
}{
	{model.MLLM9B, 32, 4, 2, 4, 2, "normal"},
	{model.MLLM15B, 48, 5, 2, 4, 0, "normal"},
	{model.MLLM9B, 40, 4, 2, 3, 1, "low"},
	{model.MLLM15B, 24, 6, 3, 5, 2, "low"},
	{model.MLLM9B, 56, 5, 2, 5, 3, "normal"},
	{model.MLLM15B, 64, 4, 2, 4, 5, "low"},
}

func newChurn(h *harness, st *setupTimes) (*churn, error) {
	c := &churn{base: cluster.Production(churnNodes), plans: map[string]oraclePlan{}}
	maxBatch, maxIters := 0, 0
	for _, t := range churnTemplates {
		maxBatch = max(maxBatch, t.batch)
		maxIters = max(maxIters, t.iters)
	}
	corpus, err := buildCorpus(corpusSpec(h.seed), maxBatch*maxIters, st)
	if err != nil {
		return nil, err
	}
	// One calibrated profiler per model, shared by that model's
	// templates the way a control plane shares calibrations.
	profiled := map[string]trainer.Config{}
	var jobs []fleet.JobSpec
	for k, t := range churnTemplates {
		m := t.m()
		base, ok := profiled[m.Name]
		if !ok {
			if base, err = template(c.base, m, t.batch, corpus, st); err != nil {
				return nil, err
			}
			profiled[m.Name] = base
		}
		cfg := base
		cfg.Spec.GlobalBatch = t.batch
		jobs = append(jobs, fleet.JobSpec{
			Name: fmt.Sprintf("c%d", k), Train: cfg, Iters: t.iters,
			MinNodes: t.minNodes, MaxNodes: t.maxNodes, Arrive: t.arrive, Priority: t.class,
		})
	}
	// Every pass runs the whole grid of departing job x failing node
	// (nodes the packed placement has leased by round 2), in an order
	// the seed shuffles: which job leaves and which tenant loses a node
	// move admission latency more than any code change would, so no
	// seed may pick a cheaper corner of the grid.
	for _, depart := range []int{3, 4, 5} {
		for _, node := range []int{0, 2, 4} {
			sc, err := scenario.New("churn",
				scenario.Event{Kind: scenario.Herd, Start: 2, Job: 0, Count: 3},
				scenario.Event{Kind: scenario.JobArrive, Start: 2, Job: 1},
				scenario.Event{Kind: scenario.PreemptStorm, Start: 4, Job: 2, Class: "high", Count: 2},
				scenario.Event{Kind: scenario.JobDepart, Start: 4, Job: depart},
				scenario.Event{Kind: scenario.FleetNodeFail, Start: 2, Node: node},
				scenario.Event{Kind: scenario.FleetNodeJoin, Start: 5, Node: node},
			)
			if err != nil {
				return nil, err
			}
			c.variants = append(c.variants, churnVariant{jobs: jobs, scenario: sc})
		}
	}
	rng := rand.New(rand.NewSource(h.seed))
	rng.Shuffle(len(c.variants), func(i, j int) { c.variants[i], c.variants[j] = c.variants[j], c.variants[i] })
	return c, nil
}

func (c *churn) prepare(h *harness) error { return nil }

// pass runs every variant twice over its own fresh on-disk store: a
// cold fleet, then a control-plane restart with a new plan cache over
// the same directory.
func (c *churn) pass(h *harness) error {
	c.dirs = c.dirs[:0]
	for _, cv := range c.variants {
		dir, err := os.MkdirTemp(h.dir, "plan-store-")
		if err != nil {
			return err
		}
		c.dirs = append(c.dirs, dir)
		for phase := 0; phase < 2; phase++ {
			disk, err := store.OpenDisk(dir)
			if err != nil {
				return err
			}
			st := newTimedStore(disk, h.origin)
			cache := orchestrator.NewPersistentPlanCache(orchestrator.SearchOptions{Parallelism: h.procs}, st)
			cfg := fleet.Config{
				Cluster: c.base, Jobs: cv.jobs, Policy: &fleet.PriorityScheduler{},
				Scenario: cv.scenario, Cache: cache, Planners: h.procs, Workers: h.procs,
			}
			if _, err := h.runFleet(cfg, st); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *churn) check(h *harness, p *passRec) error {
	defer func() {
		for _, d := range c.dirs {
			os.RemoveAll(d)
		}
	}()
	if len(p.runs) != 2*len(c.variants) {
		return fmt.Errorf("churn pass made %d fleet runs, want %d", len(p.runs), 2*len(c.variants))
	}
	for i, fr := range p.runs {
		if fr.leaseErr != nil {
			return fr.leaseErr
		}
		if err := c.checkPlans(fr); err != nil {
			return fmt.Errorf("variant %d %s pass: %w", i/2, []string{"cold", "restart"}[i%2], err)
		}
	}
	for i := 0; i < len(p.runs); i += 2 {
		cold, restart := p.runs[i], p.runs[i+1]
		for key := range restart.store.putKeys {
			if cold.store.putKeys[key] {
				return fmt.Errorf("variant %d: restart pass searched shape %s again although the cold pass stored it", i/2, key)
			}
		}
		if restart.res.PlanWarmHits == 0 {
			return fmt.Errorf("variant %d: restart pass served no plan from the store", i/2)
		}
	}
	return nil
}

// checkPlans holds every shape a tenant leased at a round callback to
// the sequential reference search: the plan the fleet's cache settled
// for it must equal PlanDistTrainSequential's.
func (c *churn) checkPlans(fr *fleetRun) error {
	cache := fr.cfg.Cache
	for id, leases := range fr.leases {
		jr := fr.res.Jobs[id]
		if jr.ID != id {
			return fmt.Errorf("tenant %d reported at index %d", jr.ID, id)
		}
		tmpl := fr.cfg.Jobs[jr.Spec].Train.Spec
		for _, nodes := range leases {
			spec := leaseSpec(tmpl, c.base, nodes, true)
			key := cache.Fingerprint(spec)
			want, ok := c.plans[key]
			if !ok {
				want.plan, want.err = orchestrator.PlanDistTrainSequential(spec)
				c.plans[key] = want
				if want.err == nil {
					c.specs = append(c.specs, spec)
				}
			}
			got, settled, err := cache.PlanIfSettled(spec)
			if !settled {
				return fmt.Errorf("tenant %s leased %v but its plan never settled", jr.Name, nodes)
			}
			if (err == nil) != (want.err == nil) {
				return fmt.Errorf("tenant %s on %v: plan error %v, reference %v", jr.Name, nodes, err, want.err)
			}
			if !reflect.DeepEqual(got, want.plan) {
				return fmt.Errorf("tenant %s on %v: plan differs from the sequential reference", jr.Name, nodes)
			}
		}
	}
	return nil
}

func (c *churn) shape() probeShape {
	js := c.variants[0].jobs[churnProbe]
	nodes := make([]int, js.MinNodes)
	for i := range nodes {
		nodes[i] = i
	}
	spec := leaseSpec(js.Train.Spec, c.base, nodes, true)
	plan, _ := orchestrator.PlanDistTrainSequential(spec)
	return probeShape{
		spec:    spec,
		plan:    plan,
		samples: js.Train.Corpus.GlobalBatch(0, js.Train.Spec.GlobalBatch),
		specs:   c.specs,
	}
}

// --- shared-preproc ---

type preproc struct {
	base cluster.Cluster
	tmpl trainer.Config
	jobs []fleet.JobSpec
	scen scenario.Scenario
	spec orchestrator.Spec
	plan *orchestrator.Plan
}

const (
	preprocTenants = 8
	preprocIters   = 12
)

// preprocCorpus is LAION at reduced image resolution: the producers
// still decode, resize and pack every image, at a size that lets a
// pass finish in about a second.
func preprocCorpus(seed int64) data.Spec {
	sp := corpusSpec(seed)
	sp.ResMedian = 32
	sp.MinResolution = 16
	sp.MaxResolution = 64
	return sp
}

func newPreproc(h *harness, st *setupTimes) (*preproc, error) {
	const batch, leaseNodes = 32, 2
	rng := rand.New(rand.NewSource(h.seed))
	p := &preproc{base: cluster.Production(preprocTenants * leaseNodes)}
	corpus, err := buildCorpus(preprocCorpus(h.seed), preprocIters*batch, st)
	if err != nil {
		return nil, err
	}
	if p.tmpl, err = template(p.base, model.MLLM9B(), batch, corpus, st); err != nil {
		return nil, err
	}
	for i := 0; i < preprocTenants; i++ {
		p.jobs = append(p.jobs, fleet.JobSpec{
			Name: fmt.Sprintf("p%d", i), Train: p.tmpl, Iters: preprocIters,
			MinNodes: leaseNodes, MaxNodes: leaseNodes,
		})
	}
	fail, producer := 1+rng.Intn(2), rng.Intn(2)
	p.scen, err = scenario.New("producer-churn",
		scenario.Event{Kind: scenario.ProducerFail, Start: fail, Producer: producer},
		scenario.Event{Kind: scenario.ProducerJoin, Start: fail + 2, Producer: producer},
	)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (p *preproc) prepare(h *harness) error {
	p.spec = leaseSpec(p.tmpl.Spec, p.base, []int{0, 1}, false)
	var err error
	p.plan, err = orchestrator.PlanDistTrainSequential(p.spec)
	return err
}

func (p *preproc) pass(h *harness) error {
	cfg := fleet.Config{
		Cluster: p.base, Jobs: p.jobs, Policy: fleet.FairShare, Workers: h.procs,
		Scenario: p.scen,
		Preprocess: &fleet.PreprocessConfig{
			Producers: 2,
			Server: preprocess.Config{
				Source: p.tmpl.Corpus, GlobalBatch: p.tmpl.Spec.GlobalBatch,
				DPSize: 1, Microbatch: 1, Workers: 1, Readahead: 1,
			},
		},
	}
	_, err := h.runFleet(cfg, nil)
	return err
}

func (p *preproc) check(h *harness, rec *passRec) error {
	fr := rec.runs[0]
	if fr.leaseErr != nil {
		return fr.leaseErr
	}
	agg := fr.res.Preprocess
	if agg == nil {
		return errors.New("no shared-tier snapshot")
	}
	var sum int64
	for _, jr := range fr.res.Jobs {
		if jr.Pool == nil {
			return fmt.Errorf("tenant %s has no pool snapshot", jr.Name)
		}
		sum += jr.Pool.Fetches
	}
	if sum != agg.Fetches {
		return fmt.Errorf("per-tenant fetches sum to %d, the tier counted %d", sum, agg.Fetches)
	}
	return nil
}

func (p *preproc) shape() probeShape {
	return probeShape{
		spec:    p.spec,
		plan:    p.plan,
		samples: p.tmpl.Corpus.GlobalBatch(0, p.tmpl.Spec.GlobalBatch),
		specs:   []orchestrator.Spec{p.spec},
	}
}
