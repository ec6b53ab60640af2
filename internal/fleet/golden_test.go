package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"disttrain/internal/data"
	"disttrain/internal/orchestrator"
	"disttrain/internal/trainer"
)

// newTrainTemplate builds the plain training template the golden
// fixtures share.
func newTrainTemplate(spec orchestrator.Spec, corpus *data.Corpus) trainer.Config {
	return trainer.DistTrainConfig(spec, nil, corpus)
}

// -update rewrites the golden lease-table fixtures. The committed
// goldens were captured on the pre-redesign runner (Policy as an int
// enum); the Scheduler-interface reimplementation of FIFO and
// FairShare must reproduce them byte-for-byte.
var updateGolden = flag.Bool("update", false, "rewrite golden lease-table fixtures")

// leaseTableLog renders a fleet run's complete scheduling story as a
// canonical text form: every round's lease table (free, failed and
// per-tenant node sets), the plan-cache traffic, and each tenant's
// final scheduling summary. Everything the scheduler decides is
// visible here; two runs with equal logs made identical decisions.
func leaseTableLog(t *testing.T, cfg Config) string {
	t.Helper()
	var b strings.Builder
	cfg.OnRound = func(info RoundInfo) {
		fmt.Fprintf(&b, "round %d free=%v failed=%v leases={", info.Round, info.Free, info.Failed)
		ids := make([]int, 0, len(info.Leases))
		for id := range info.Leases {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for i, id := range ids {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%d:%v", id, info.Leases[id])
		}
		b.WriteString("}\n")
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "rounds=%d searches=%d hits=%d\n", res.Rounds, res.PlanSearches, res.PlanHits)
	for _, jr := range res.Jobs {
		fmt.Fprintf(&b, "job %d %s spec=%d arrived=%d started=%d finished=%d resizes=%d departed=%v err=%v\n",
			jr.ID, jr.Name, jr.Spec, jr.Arrived, jr.Started, jr.Finished, jr.Resizes, jr.Departed, jr.Err)
		if jr.Result != nil {
			fmt.Fprintf(&b, "  iters=%d switches=%d strategy=%s\n",
				len(jr.Result.Iterations), jr.Result.PlanSwitches, jr.Strategy)
		}
	}
	return b.String()
}

// goldenCompare checks the log against testdata/<name>.golden,
// rewriting it under -update.
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from the pre-redesign golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestGoldenFIFOLeaseTable pins FIFO's scheduling decisions — lease
// sizing, placement, suspend-on-failure, head-of-line blocking —
// against the golden captured before the Policy enum became the
// Scheduler interface.
func TestGoldenFIFOLeaseTable(t *testing.T) {
	spec, corpus := buildSpec(t, 8, 32)
	tmpl := newTrainTemplate(spec, corpus)
	cfg := Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "a", Train: tmpl, Iters: 5, MinNodes: 2, MaxNodes: 4},
			{Name: "b", Train: tmpl, Iters: 4, MinNodes: 2, MaxNodes: 4},
			{Name: "c", Train: tmpl, Iters: 3, MinNodes: 2, MaxNodes: 8, Arrive: 1},
		},
		Policy:   FIFO,
		Scenario: mustParse(t, "node-fail:iter=2,node=1; node-join:iter=4,node=1"),
	}
	goldenCompare(t, "fifo_lease_table", leaseTableLog(t, cfg))
}

// TestGoldenFairShareLeaseTable pins FairShare's decisions — equal
// shares, shrink-to-admit, grow-on-departure — against the
// pre-redesign golden. The fixture keeps every share division even
// (8 nodes, at most 2 active tenants), so the deliberate remainder
// bugfix (fairShare distributing healthy%tenants) does not perturb it.
func TestGoldenFairShareLeaseTable(t *testing.T) {
	spec, corpus := buildSpec(t, 8, 32)
	tmpl := newTrainTemplate(spec, corpus)
	cfg := Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "a", Train: tmpl, Iters: 6, MinNodes: 2, MaxNodes: 8},
			{Name: "b", Train: tmpl, Iters: 6, MinNodes: 2, MaxNodes: 8, Arrive: 1},
		},
		Policy:   FairShare,
		Scenario: mustParse(t, "job-depart:iter=3,job=0"),
	}
	goldenCompare(t, "fairshare_lease_table", leaseTableLog(t, cfg))
}

// fleetTraceGoldenSHA256 is the sha256 of the merged fleet Chrome
// trace TestFleetTraceGolden renders, recorded on amd64.
const fleetTraceGoldenSHA256 = "4364962bc273db7a0dc4098fea1585872a4e5aba38841c00ff19a4adb4cc5a8b"

// TestFleetTraceGolden pins the merged fleet trace bytes of a traced
// fair-share fleet with staggered arrivals, a node failure and rejoin,
// a departure and the lease resizes they cause. Any change to how
// events are recorded, merged or encoded shows up as a new digest.
func TestFleetTraceGolden(t *testing.T) {
	// arm64 fuses multiply-adds, so simulated timestamps may differ in
	// their last bits there; the digest is recorded on amd64, where CI
	// runs.
	if runtime.GOARCH != "amd64" {
		t.Skipf("trace digest is recorded on amd64, not %s", runtime.GOARCH)
	}
	spec, corpus := buildSpec(t, 8, 32)
	res, err := Run(perturbedFleet(t, spec, corpus, 0))
	if err != nil {
		t.Fatal(err)
	}
	resizes := 0
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %s failed: %v", jr.Name, jr.Err)
		}
		resizes += jr.Resizes
	}
	if resizes == 0 {
		t.Fatal("fixture no longer resizes any lease")
	}
	sum := sha256.Sum256(traceBytes(t, res.Trace))
	if got := hex.EncodeToString(sum[:]); got != fleetTraceGoldenSHA256 {
		t.Errorf("merged fleet trace sha256 = %s, want %s", got, fleetTraceGoldenSHA256)
	}
}
