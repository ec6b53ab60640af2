package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"disttrain/internal/data"
	"disttrain/internal/orchestrator"
	"disttrain/internal/trainer"
)

// trainerTemplate builds the per-job training template off a spec.
func trainerTemplate(t *testing.T, spec orchestrator.Spec, corpus *data.Corpus) trainer.Config {
	t.Helper()
	return trainer.DistTrainConfig(spec, nil, corpus)
}

// TestFairSharePure pins the share arithmetic, including the remainder
// fix: healthy%tenants no longer strands nodes — the remainder goes
// one node each to the lowest-ranked tenants, and shares always sum to
// the healthy fleet when there are at least as many nodes as tenants.
func TestFairSharePure(t *testing.T) {
	for _, tc := range []struct {
		healthy, tenants int
		want             []int // share per rank k
	}{
		{5, 3, []int{2, 2, 1}}, // the pre-fix case: floor stranded 2 nodes
		{5, 2, []int{3, 2}},
		{8, 2, []int{4, 4}}, // even split: byte-identical to the old floor
		{7, 3, []int{3, 2, 2}},
		{6, 1, []int{6}},
		{2, 5, []int{1, 1, 1, 1, 1}}, // oversubscribed: floor of 1 each
	} {
		for k, want := range tc.want {
			if got := fairShare(tc.healthy, tc.tenants, k); got != want {
				t.Errorf("fairShare(%d, %d, %d) = %d, want %d", tc.healthy, tc.tenants, k, got, want)
			}
		}
	}
	for healthy := 1; healthy <= 12; healthy++ {
		for tenants := 1; tenants <= healthy; tenants++ {
			sum := 0
			for k := 0; k < tenants; k++ {
				sum += fairShare(healthy, tenants, k)
			}
			if sum != healthy {
				t.Errorf("fairShare(%d, %d, ·) sums to %d: %d nodes stranded",
					healthy, tenants, sum, healthy-sum)
			}
		}
	}
	if clamp(5, 2, 3) != 3 || clamp(1, 2, 8) != 2 || clamp(2, 3, 1) != 1 {
		t.Error("clamp wrong")
	}
}

// TestFairShareNoIdleNodes is the remainder bugfix end-to-end: on a
// 5-node fleet with two elastic tenants, a node failure and rejoin,
// no healthy node may idle while any tenant sits below MaxNodes. The
// pre-fix floor target (5/2 = 2) left the rejoined node unleased
// forever.
func TestFairShareNoIdleNodes(t *testing.T) {
	spec, corpus := buildSpec(t, 5, 32)
	tmpl := trainerTemplate(t, spec, corpus)
	sawThree := false
	res, err := Run(Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "a", Train: tmpl, Iters: 6, MinNodes: 2, MaxNodes: 5},
			{Name: "b", Train: tmpl, Iters: 6, MinNodes: 2, MaxNodes: 5},
		},
		Policy:   FairShare,
		Scenario: mustParse(t, "node-fail:iter=1,node=2; node-join:iter=3,node=2"),
		OnRound: func(info RoundInfo) {
			// Both tenants cap at the whole fleet, so any round with both
			// running and a free healthy node is a stranded remainder.
			if len(info.Leases) == 2 && len(info.Free) > 0 {
				t.Errorf("round %d: %d free nodes idle with both tenants below MaxNodes (leases %v)",
					info.Round, len(info.Free), info.Leases)
			}
			if len(info.Leases[0]) == 3 {
				sawThree = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %s: %v", jr.Name, jr.Err)
		}
	}
	if !sawThree {
		t.Error("tenant a never held the 3-node remainder share")
	}
	// a's story: shrink to admit b, shrink on failure, grow on rejoin.
	if res.Jobs[0].Resizes < 3 {
		t.Errorf("tenant a resized %d times, want >= 3 (admit shrink, failure shrink, rejoin grow)",
			res.Jobs[0].Resizes)
	}
}

// TestPackNodes pins the priority scheduler's placement scoring:
// best-fit contiguous run (lowest index on ties), else whole runs
// largest-first.
func TestPackNodes(t *testing.T) {
	free := []int{0, 1, 2, 4, 5, 6, 7}
	for _, tc := range []struct {
		free  []int
		grant int
		want  []int
	}{
		{free, 2, []int{0, 1}}, // best fit: the 3-run beats the 4-run
		{free, 3, []int{0, 1, 2}},
		{free, 4, []int{4, 5, 6, 7}},
		{free, 5, []int{0, 4, 5, 6, 7}},     // no run fits: largest run whole, rest from next
		{[]int{0, 2, 4}, 2, []int{0, 2}},    // all fragments: lowest-index singles
		{[]int{0, 1, 3, 4}, 2, []int{0, 1}}, // tie on run length: lowest index
		{[]int{3, 4}, 2, []int{3, 4}},
	} {
		if got := packNodes(tc.free, tc.grant); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("packNodes(%v, %d) = %v, want %v", tc.free, tc.grant, got, tc.want)
		}
	}
	if got := freeRuns([]int{0, 1, 5, 6, 7}); !reflect.DeepEqual(got, []nodeRun{{0, 2}, {5, 3}}) {
		t.Errorf("freeRuns = %v", got)
	}
}

// TestPriorityOrderAging pins the effective-priority arithmetic: class
// rank is worth AgingRounds rounds of waiting, so a queued job ages
// past any fixed class in bounded time; suspended tenants win ties.
func TestPriorityOrderAging(t *testing.T) {
	p := &PriorityScheduler{AgingRounds: 4}
	high := JobView{ID: 2, Priority: ClassHigh}
	low := JobView{ID: 1, Priority: ClassLow}
	if !p.Order(high, low) || p.Order(low, high) {
		t.Error("fresh high must outrank fresh low")
	}
	agedLow := low
	agedLow.Waited = 9 // 9 > 2*AgingRounds: past high's head start
	if !p.Order(agedLow, high) {
		t.Error("low aged past 2*AgingRounds must outrank a fresh high")
	}
	// Ties: suspended first (progress is sunk cost), then submission id.
	susp := JobView{ID: 5, Priority: ClassLow, Waited: 8, Suspended: true}
	fresh := JobView{ID: 0, Priority: ClassHigh}
	if p.Effective(susp) != p.Effective(fresh) {
		t.Fatalf("fixture broken: eff %d vs %d", p.Effective(susp), p.Effective(fresh))
	}
	if !p.Order(susp, fresh) {
		t.Error("suspended tenant must win an effective-priority tie")
	}
	a, b := JobView{ID: 0, Priority: ClassNormal}, JobView{ID: 1, Priority: ClassNormal}
	if !p.Order(a, b) || p.Order(b, a) {
		t.Error("equal class and wait must fall back to submission order")
	}
	// Zero value ages at the default horizon.
	var zero PriorityScheduler
	if got := zero.Effective(JobView{Priority: ClassHigh}); got != 2*DefaultAgingRounds {
		t.Errorf("zero-value high effective = %d, want %d", got, 2*DefaultAgingRounds)
	}
	if ClassLow.Rank() != 0 || Class("").Rank() != 1 || ClassNormal.Rank() != 1 || ClassHigh.Rank() != 2 {
		t.Error("class ranks changed")
	}
	if Class("").String() != "normal" {
		t.Error("empty class must render as normal")
	}
}

// TestJobSpecPriorityValidation: an unknown class fails Run with a
// clear error naming the job and the accepted classes.
func TestJobSpecPriorityValidation(t *testing.T) {
	spec, corpus := buildSpec(t, 2, 16)
	tmpl := trainerTemplate(t, spec, corpus)
	_, err := Run(Config{
		Cluster: spec.Cluster,
		Jobs:    []JobSpec{{Train: tmpl, Iters: 1, Priority: Class("urgent")}},
	})
	if err == nil {
		t.Fatal("unknown priority class accepted")
	}
	for _, needle := range []string{"job 0", "urgent", "low, normal or high"} {
		if !strings.Contains(err.Error(), needle) {
			t.Errorf("error %q missing %q", err, needle)
		}
	}
	for _, s := range []string{"", "low", "normal", "high"} {
		if _, perr := ParseClass(s); perr != nil {
			t.Errorf("ParseClass(%q): %v", s, perr)
		}
	}
}

// priorityFleet is the mixed-priority fixture: a low tenant holding
// the whole 4-node fleet, then a preempt-storm of high arrivals that
// evicts it; the low tenant resumes from checkpoints once the storm
// drains.
func priorityFleet(t *testing.T, workers int) Config {
	t.Helper()
	spec, corpus := buildSpec(t, 4, 32)
	tmpl := trainerTemplate(t, spec, corpus)
	return Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "low", Train: tmpl, Iters: 4, MinNodes: 2, MaxNodes: 4, Priority: ClassLow},
			{Name: "high", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2, Priority: ClassHigh, Arrive: 2},
		},
		Policy:   Priority,
		Scenario: mustParse(t, "preempt-storm:iter=2,job=1,count=2"),
		Workers:  workers,
		Trace:    true,
	}
}

// TestPriorityPreemptResume drives the tentpole end-to-end: a high
// gang preempts the running low tenant through the suspend path, the
// storm runs on packed placements, and the low tenant resumes via the
// costed checkpoint-restore and still finishes every iteration.
func TestPriorityPreemptResume(t *testing.T) {
	res, err := Run(priorityFleet(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 4 {
		t.Fatalf("fleet ran %d tenants, want 4 (low + high + 2 storm arrivals)", len(res.Jobs))
	}
	low := res.Jobs[0]
	if low.Err != nil {
		t.Fatal(low.Err)
	}
	if low.Priority != ClassLow || low.Preemptions != 1 {
		t.Errorf("low: class %q preemptions %d, want low/1", low.Priority, low.Preemptions)
	}
	if low.Resizes != 1 {
		t.Errorf("low resized %d times, want exactly 1 (the checkpoint-restore resume)", low.Resizes)
	}
	if got := len(low.Result.Iterations); got != 4 {
		t.Errorf("preempted low finished %d iterations, want all 4", got)
	}
	if low.Result.PlanSwitches == 0 || low.Result.DowntimeSeconds <= 0 {
		t.Errorf("resume was not a costed reconfiguration: switches=%d downtime=%g",
			low.Result.PlanSwitches, low.Result.DowntimeSeconds)
	}
	if low.Plan == nil {
		t.Error("low has no final plan")
	}
	for _, hi := range res.Jobs[1:] {
		if hi.Err != nil {
			t.Fatalf("high %s: %v", hi.Name, hi.Err)
		}
		if hi.Priority != ClassHigh || hi.Preemptions != 0 {
			t.Errorf("high %s: class %q preemptions %d", hi.Name, hi.Priority, hi.Preemptions)
		}
		if hi.Started < 2 {
			t.Errorf("high %s started round %d before its arrival", hi.Name, hi.Started)
		}
		if got := len(hi.Result.Iterations); got != 2 {
			t.Errorf("high %s finished %d iterations, want 2", hi.Name, got)
		}
	}
	// The merged trace tells the preemption story.
	trace := traceBytes(t, res.Trace)
	for _, needle := range []string{"job-preempt", "preempted by high"} {
		if !bytes.Contains(trace, []byte(needle)) {
			t.Errorf("merged trace missing %q", needle)
		}
	}
}

// TestPriorityDeterminism pins the mixed-priority contract of the
// redesign: the fixed arrival trace yields identical job results,
// identical per-round lease tables and an identical merged trace
// across reruns and worker-pool sizes. Run under -race and -count by
// the CI gate.
func TestPriorityDeterminism(t *testing.T) {
	type outcome struct {
		jobs   []JobResult
		rounds []string
		trace  []byte
	}
	var want outcome
	for i, workers := range []int{1, 1, 4, runtime.GOMAXPROCS(0)} {
		cfg := priorityFleet(t, workers)
		var rounds []string
		cfg.OnRound = func(info RoundInfo) {
			rounds = append(rounds, fmt.Sprintf("r%d free=%v failed=%v leases=%v",
				info.Round, info.Free, info.Failed, leaseLines(info.Leases)))
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobs := append([]JobResult(nil), res.Jobs...)
		for j := range jobs {
			jobs[j].Trace = nil // compared via the merged trace bytes
		}
		got := outcome{jobs: jobs, rounds: rounds, trace: traceBytes(t, res.Trace)}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got.jobs, want.jobs) {
			t.Errorf("workers %d: job results diverged", workers)
		}
		if !reflect.DeepEqual(got.rounds, want.rounds) {
			t.Errorf("workers %d: lease tables diverged:\n%v\nvs\n%v", workers, got.rounds, want.rounds)
		}
		if !bytes.Equal(got.trace, want.trace) {
			t.Errorf("workers %d: merged trace diverged (%d vs %d bytes)",
				workers, len(got.trace), len(want.trace))
		}
	}
}

// leaseLines renders a lease map deterministically (sorted by tenant).
func leaseLines(leases map[int][]int) string {
	max := -1
	for id := range leases {
		if id > max {
			max = id
		}
	}
	var sb strings.Builder
	for id := 0; id <= max; id++ {
		if nodes, ok := leases[id]; ok {
			fmt.Fprintf(&sb, "%d:%v ", id, nodes)
		}
	}
	return sb.String()
}

// TestPriorityAgingBoundsStarvation: under a steady stream of
// higher-class arrivals, a low job with aging enabled starts in
// bounded time — and strictly earlier than with aging effectively
// disabled, where it runs dead last.
func TestPriorityAgingBoundsStarvation(t *testing.T) {
	spec, corpus := buildSpec(t, 2, 16)
	tmpl := trainerTemplate(t, spec, corpus)
	run := func(aging int) *Result {
		res, err := Run(Config{
			Cluster: spec.Cluster,
			Jobs: []JobSpec{
				{Name: "hog", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2},
				{Name: "low", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2, Priority: ClassLow},
				{Name: "norm", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2, Arrive: 1},
			},
			Policy: &PriorityScheduler{AgingRounds: aging},
			Scenario: mustParse(t,
				"priority-arrive:iter=2,job=2; priority-arrive:iter=3,job=2; priority-arrive:iter=4,job=2; "+
					"priority-arrive:iter=5,job=2; priority-arrive:iter=6,job=2"),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, jr := range res.Jobs {
			if jr.Err != nil {
				t.Fatalf("aging %d: job %s: %v", aging, jr.Name, jr.Err)
			}
			if got := len(jr.Result.Iterations); got != 2 {
				t.Errorf("aging %d: %s finished %d iterations, want 2", aging, jr.Name, got)
			}
			// Preemption crosses class boundaries only: the normal-class
			// stream may evict the running low tenant, but nothing
			// outranks the normals themselves, and an aged queue position
			// never evicts (it only jumps the queue).
			if jr.Priority != ClassLow && jr.Preemptions != 0 {
				t.Errorf("aging %d: %s preempted %d times with no higher class in the fleet",
					aging, jr.Name, jr.Preemptions)
			}
		}
		return res
	}
	aged := run(2)
	unaged := run(1000) // one class is worth 1000 rounds: aging never decides
	agedStart, unagedStart := aged.Jobs[1].Started, unaged.Jobs[1].Started
	if agedStart >= unagedStart {
		t.Errorf("aging did not help: low started round %d aged vs %d unaged", agedStart, unagedStart)
	}
	// The bound: with AgingRounds=2 the low job outranks fresh
	// normal-class arrivals after ~2 rounds of waiting and starts while
	// the stream is still arriving, not after it.
	if agedStart > 6 {
		t.Errorf("aged low started round %d, after the whole arrival stream", agedStart)
	}
}

// TestSchedulerRegistry covers registration and lookup.
func TestSchedulerRegistry(t *testing.T) {
	names := SchedulerNames()
	for _, want := range []string{"fair-share", "fifo", "priority"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("built-in %q missing from registry: %v", want, names)
		}
	}
	if s, ok := LookupScheduler("fifo"); !ok || s.Name() != "fifo" {
		t.Error("LookupScheduler(fifo) failed")
	}
	if _, ok := LookupScheduler("lifo"); ok {
		t.Error("LookupScheduler invented a scheduler")
	}
	if err := RegisterScheduler(nil); err == nil {
		t.Error("nil scheduler registered")
	}
	if err := RegisterScheduler(FIFO); err == nil {
		t.Error("duplicate registration accepted")
	}
	// Custom schedulers register by name and resolve through the
	// registry. Register once: the registry is process-global, so
	// -count reruns must tolerate the name already existing.
	if _, ok := LookupScheduler("test-custom"); !ok {
		if err := RegisterScheduler(renamedScheduler{FIFO}); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := LookupScheduler("test-custom"); !ok || got.Name() != "test-custom" {
		t.Errorf("LookupScheduler(test-custom) = %v, %v", got, ok)
	}
}

// renamedScheduler wraps a Scheduler under a different registry name.
type renamedScheduler struct{ Scheduler }

func (renamedScheduler) Name() string { return "test-custom" }
