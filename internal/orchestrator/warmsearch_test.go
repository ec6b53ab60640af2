package orchestrator

import (
	"context"
	"reflect"
	"testing"

	"disttrain/internal/model"
)

// seedFromPlan extracts a plan's strategy combination — the same
// projection the plan cache uses to warm-start a neighbouring size.
func seedFromPlan(p *Plan) Candidate {
	return Candidate{
		TPLM: p.Modules[model.Backbone].Config.TP,
		DPLM: p.Modules[model.Backbone].Config.DP,
		WME:  p.Modules[model.Encoder].Config.TP,
		WMG:  p.Modules[model.Generator].Config.TP,
	}
}

// TestPlanSearchSeededEquivalence is the warm-start guarantee: seeding
// the sample-bounded search with a real incumbent from a neighbouring
// cluster size returns a plan byte-identical to the sequential
// reference, actually prunes work, and prunes the same candidate count
// at every parallelism level (the bound is frozen at the phase
// barrier).
func TestPlanSearchSeededEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		m      model.MLLM
		nodes  int
		batch  int
		freeze model.FreezeSpec
	}{
		{"9b-full", model.MLLM9B(), 12, 96, model.FullTraining},
		{"15b-encoder-only", model.MLLM15B(), 16, 128, model.EncoderOnly},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSpec(t, tc.m, tc.nodes, tc.batch, tc.freeze)
			want, err := PlanDistTrainSequential(s)
			if err != nil {
				t.Fatal(err)
			}
			// The incumbent: the plan the cache would hold for the same
			// spec family one node smaller.
			neighbor := s
			neighbor.Cluster.Nodes = tc.nodes - 1
			inc, err := PlanDistTrainSequential(neighbor)
			if err != nil {
				t.Fatal(err)
			}
			seed := seedFromPlan(inc)

			pruned := -1
			for _, par := range []int{1, 4} {
				r := PlanMany(context.Background(), []Spec{s}, SearchOptions{
					Parallelism: par, Seeds: []*Candidate{&seed}, SampleBound: true,
				})[0]
				if r.Err != nil {
					t.Fatalf("parallelism %d: %v", par, r.Err)
				}
				if !reflect.DeepEqual(r.Plan, want) {
					t.Errorf("parallelism %d: seeded search diverged from sequential reference:\ngot  %+v\nwant %+v", par, r.Plan, want)
				}
				if r.Pruned == 0 {
					t.Errorf("parallelism %d: incumbent seed pruned nothing", par)
				}
				if pruned >= 0 && r.Pruned != pruned {
					t.Errorf("prune count depends on parallelism: %d vs %d", r.Pruned, pruned)
				}
				pruned = r.Pruned
			}
			t.Logf("seed %v pruned %d of %d candidates", seed, pruned, len(enumerateCandidates(s, s.maxGPUs())))

			// A seed outside the strategy set is ignored: same plan, and
			// exactly the unseeded sample-bounded search's prune count.
			unseeded := PlanMany(context.Background(), []Spec{s}, SearchOptions{
				Parallelism: 4, SampleBound: true,
			})[0]
			bogus := Candidate{TPLM: 3, DPLM: 1, WME: 3, WMG: 3}
			r := PlanMany(context.Background(), []Spec{s}, SearchOptions{
				Parallelism: 4, Seeds: []*Candidate{&bogus}, SampleBound: true,
			})[0]
			if r.Err != nil || unseeded.Err != nil {
				t.Fatal(r.Err, unseeded.Err)
			}
			if !reflect.DeepEqual(r.Plan, want) {
				t.Error("bogus seed changed the chosen plan")
			}
			if r.Pruned != unseeded.Pruned {
				t.Errorf("bogus seed pruned %d candidates, want the unseeded %d", r.Pruned, unseeded.Pruned)
			}
		})
	}
}
