package orchestrator

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestPlanCancelledContextLeavesNoEntry drives Plan's real cancellation
// path: a search under an already-cancelled context fails with the
// cancellation and is evicted, so the next caller with a healthy
// context searches afresh and gets the reference plan. Plan searches in
// the caller's goroutine whether or not a planner pool runs.
func TestPlanCancelledContextLeavesNoEntry(t *testing.T) {
	spec := cacheSpec(t, 4, 32)
	want, err := PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range []int{0, 2} {
		name := "poolless"
		if pool > 0 {
			name = "pool"
		}
		t.Run(name, func(t *testing.T) {
			c := NewPlanCache(SearchOptions{Parallelism: 2})
			if pool > 0 {
				if err := c.StartPlanners(pool); err != nil {
					t.Fatal(err)
				}
				defer c.StopPlanners()
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := c.Plan(ctx, spec); !errors.Is(err, context.Canceled) {
				t.Fatalf("Plan under a cancelled context: err = %v, want context.Canceled", err)
			}
			if c.Len() != 0 {
				t.Fatalf("cancelled search left %d entries behind, want 0", c.Len())
			}
			before := c.Searches()
			got, err := c.Plan(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if n := c.Searches() - before; n != 1 {
				t.Errorf("retry after cancellation ran %d searches, want 1", n)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("retry after cancellation diverged from PlanDistTrain")
			}
		})
	}
}

// TestPlanJoinerDoesNotPublish pins the ownership rule of the entry
// lifecycle: only a claimant publishes. A synchronous Plan that joins
// an unpublished async entry gets the ticket's plan and counts one hit,
// but the entry stays invisible to PlanIfSettled and to neighbour
// warm seeds until the ticket itself is published.
func TestPlanJoinerDoesNotPublish(t *testing.T) {
	spec := cacheSpec(t, 4, 32)
	above, below := spec, spec
	above.Cluster.Nodes = 5
	below.Cluster.Nodes = 3
	ctx := context.Background()
	c := NewPlanCache(SearchOptions{})
	tk := c.PlanAsync(ctx, spec) // no pool: searched before returning
	want, err := tk.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hits := c.Hits()
	got, err := c.Plan(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("joining Plan returned a different plan than the ticket")
	}
	if n := c.Hits() - hits; n != 1 {
		t.Errorf("joining Plan counted %d hits, want 1", n)
	}
	if _, ok, _ := c.PlanIfSettled(spec); ok {
		t.Error("a joining Plan published someone else's async entry")
	}
	if c.PlanAsync(ctx, above).Seeded() {
		t.Error("an entry published by a joiner seeded the N+1 neighbour")
	}
	tk.Publish()
	if _, ok, err := c.PlanIfSettled(spec); !ok || err != nil {
		t.Errorf("published entry not served: ok=%v err=%v", ok, err)
	}
	if !c.PlanAsync(ctx, below).Seeded() {
		t.Error("published entry did not seed the N-1 neighbour")
	}
}
