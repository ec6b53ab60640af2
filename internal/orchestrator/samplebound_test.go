package orchestrator

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"disttrain/internal/model"
)

// TestPlanSearchSampleBoundEquivalence is the async planner tier's
// correctness gate: the two-phase sample-bounded search returns plans
// byte-identical to the sequential reference, prunes a deterministic
// candidate count at every parallelism level (the bound is frozen at
// the phase barrier), and actually prunes work on realistic fleet
// shapes — with and without a seed, and through the per-spec Seeds
// slice of a batched wave.
func TestPlanSearchSampleBoundEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		m     model.MLLM
		nodes int
		batch int
	}{
		{"lease-2node", model.MLLM9B(), 2, 32},
		{"lease-2node-batch96", model.MLLM9B(), 2, 96},
		{"9b-12node", model.MLLM9B(), 12, 96},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSpec(t, tc.m, tc.nodes, tc.batch, model.FullTraining)
			want, err := PlanDistTrainSequential(s)
			if err != nil {
				t.Fatal(err)
			}
			pruned := -1
			for _, par := range []int{1, 4} {
				r := PlanMany(context.Background(), []Spec{s}, SearchOptions{
					Parallelism: par, SampleBound: true,
				})[0]
				if r.Err != nil {
					t.Fatalf("parallelism %d: %v", par, r.Err)
				}
				if !reflect.DeepEqual(r.Plan, want) {
					t.Errorf("parallelism %d: sample-bounded search diverged from sequential reference:\ngot  %+v\nwant %+v", par, r.Plan, want)
				}
				if r.Pruned == 0 {
					t.Errorf("parallelism %d: sample bound pruned nothing", par)
				}
				if pruned >= 0 && r.Pruned != pruned {
					t.Errorf("prune count depends on parallelism: %d vs %d", r.Pruned, pruned)
				}
				pruned = r.Pruned
			}
			total := len(enumerateCandidates(s, s.maxGPUs()))
			t.Logf("sample bound pruned %d of %d candidates", pruned, total)

			// Seeded through the batched Seeds slice: same plan, and the
			// seed can only tighten the sample bound, never loosen it.
			seed := seedFromPlan(want)
			r := PlanMany(context.Background(), []Spec{s}, SearchOptions{
				Parallelism: 4, Seeds: []*Candidate{&seed}, SampleBound: true,
			})[0]
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if !reflect.DeepEqual(r.Plan, want) {
				t.Error("seeded sample-bounded search diverged from reference")
			}
			if r.Pruned < pruned {
				t.Errorf("optimal seed loosened the bound: pruned %d < unseeded %d", r.Pruned, pruned)
			}
		})
	}
}

// TestPlanManySeedsPositional: Seeds[i] seeds exactly specs[i] — a
// batched wave where only one spec has a seed must not leak it into
// its neighbours. The seed is a strategy both specs' unseeded searches
// prune: seeding moves it into the phase-1 sample, where it is
// evaluated instead of pruned, so the seeded position prunes exactly
// one candidate fewer and every other position prunes exactly what it
// prunes alone.
func TestPlanManySeedsPositional(t *testing.T) {
	s1 := newSpec(t, model.MLLM9B(), 4, 32, model.FullTraining)
	s2 := s1
	s2.GlobalBatch = 64
	want1, err := PlanDistTrainSequential(s1)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := PlanDistTrainSequential(s2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	alone := make([]int, 2)
	prunedBy := map[Candidate]int{}
	for i, s := range []Spec{s1, s2} {
		// One worker: OnCandidate calls never overlap.
		alone[i] = PlanMany(ctx, []Spec{s}, SearchOptions{
			Parallelism: 1, SampleBound: true,
			OnCandidate: func(c Candidate, _ *Plan, err error) {
				if errors.Is(err, ErrCandidatePruned) {
					prunedBy[c]++
				}
			},
		})[0].Pruned
	}
	var seed *Candidate
	for _, c := range enumerateCandidates(s1, s1.maxGPUs()) {
		if prunedBy[c] == 2 {
			seed = &c
			break
		}
	}
	if seed == nil {
		t.Fatal("no strategy is pruned by both specs' unseeded searches")
	}
	rs := PlanMany(ctx, []Spec{s1, s2}, SearchOptions{
		Parallelism: 4, Seeds: []*Candidate{seed, nil}, SampleBound: true,
	})
	if rs[0].Err != nil || rs[1].Err != nil {
		t.Fatal(rs[0].Err, rs[1].Err)
	}
	if !reflect.DeepEqual(rs[0].Plan, want1) || !reflect.DeepEqual(rs[1].Plan, want2) {
		t.Error("batched seeded wave diverged from per-spec references")
	}
	if rs[0].Pruned != alone[0]-1 {
		t.Errorf("seeded spec pruned %d candidates, want %d (its seed is sampled, not pruned)", rs[0].Pruned, alone[0]-1)
	}
	if rs[1].Pruned != alone[1] {
		t.Errorf("unseeded spec pruned %d candidates in the wave, %d alone; Seeds leaked across positions", rs[1].Pruned, alone[1])
	}
}
