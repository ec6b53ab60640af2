package disttrain

import (
	"slices"
	"strings"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	spec, corpus, err := NewSpec(MLLM9B(), 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalGPUs() > 32 {
		t.Fatalf("plan exceeds fleet: %d GPUs", plan.TotalGPUs())
	}
	res, err := Train(NewTrainConfig(spec, plan, corpus), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MFU <= 0 || res.TokensPerSec <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

func TestFacadeBaselines(t *testing.T) {
	spec, corpus, err := NewSpec(MLLM9B(), 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := PlanMegatron(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(NewMegatronTrainConfig(spec, mg, corpus), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := PlanDistMM(spec); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeFrozen(t *testing.T) {
	spec, corpus, err := NewSpecFrozen(MLLM9B(), 4, 32, LLMOnly)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(NewTrainConfig(spec, plan, corpus), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MFU <= 0 {
		t.Fatal("frozen run produced no MFU")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 10 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	if _, err := Experiment("nope", true); err == nil {
		t.Error("unknown experiment accepted")
	}
	tb, err := Experiment("table2", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Errorf("table2 rows = %d", len(tb.Rows))
	}
	if out := tb.Render(); len(out) == 0 {
		t.Error("empty render")
	}
}

// ParseFleetPolicy resolves through the scheduler registry: built-in
// and custom registered names, plus the historical "fair" alias; an
// unknown name's error lists what is registered.
func TestParseFleetPolicy(t *testing.T) {
	if s, err := ParseFleetPolicy("fair"); err != nil || s.Name() != "fair-share" {
		t.Errorf(`ParseFleetPolicy("fair") = %v, %v`, s, err)
	}
	// Register once: the registry is process-global, so -count reruns
	// must tolerate the name already existing.
	if !slices.Contains(FleetSchedulerNames(), "facade-custom") {
		if err := RegisterFleetScheduler(customScheduler{FleetFIFO}); err != nil {
			t.Fatal(err)
		}
	}
	if s, err := ParseFleetPolicy("facade-custom"); err != nil || s.Name() != "facade-custom" {
		t.Errorf(`ParseFleetPolicy("facade-custom") = %v, %v`, s, err)
	}
	_, err := ParseFleetPolicy("lifo")
	if err == nil {
		t.Fatal("unknown fleet policy accepted")
	}
	for _, name := range []string{"fifo", "fair-share", "priority", "facade-custom"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-policy error %q does not list %q", err, name)
		}
	}
}

// customScheduler registers FIFO under another name.
type customScheduler struct{ FleetScheduler }

func (customScheduler) Name() string { return "facade-custom" }

func TestFacadeFleet(t *testing.T) {
	spec, corpus, err := NewSpec(MLLM9B(), 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFleetPolicy("nope"); err == nil {
		t.Error("unknown fleet policy accepted")
	}
	pol, err := ParseFleetPolicy("fair-share")
	if err != nil {
		t.Fatal(err)
	}
	if l := NewLease(1, 0); l.NodeCount() != 2 {
		t.Fatalf("lease %v", l)
	}
	cache := NewPlanCache(SearchOptions{})
	tmpl := NewTrainConfig(spec, nil, corpus)
	res, err := RunFleet(FleetConfig{
		Cluster: spec.Cluster,
		Jobs: []FleetJobSpec{
			{Name: "x", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2},
			{Name: "y", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2},
		},
		Policy: pol,
		Cache:  cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanSearches != 1 || res.PlanHits != 1 {
		t.Errorf("shared cache: %d searches, %d hits", res.PlanSearches, res.PlanHits)
	}
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %s: %v", jr.Name, jr.Err)
		}
		if jr.Result.MFU <= 0 {
			t.Errorf("job %s: implausible MFU", jr.Name)
		}
	}
	// The shared cache is warm for the next fleet with the same spec.
	if cache.Len() != 1 {
		t.Errorf("cache holds %d fingerprints", cache.Len())
	}
}
