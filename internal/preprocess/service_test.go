package preprocess

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"disttrain/internal/data"
	"disttrain/internal/metrics"
)

func fleetConfig() Config {
	return Config{
		Source:      fixedSource{images: 1, resolution: 32, seqLen: 128},
		GlobalBatch: 8, DPSize: 2, Microbatch: 1, Workers: 4,
	}
}

// slowSource delays every sample, making builds take visible time.
type slowSource struct {
	inner fixedSource
	delay time.Duration
}

func (s slowSource) Sample(index int64) data.Sample {
	time.Sleep(s.delay)
	return s.inner.Sample(index)
}

func testService(t *testing.T, fleet *Fleet, cfg ServiceConfig) *Service {
	t.Helper()
	cfg.Addrs = fleet.Addrs()
	if cfg.FailureCooldown == 0 {
		cfg.FailureCooldown = 50 * time.Millisecond
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 500 * time.Millisecond
	}
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// testTenant builds a 1-tenant service at the fleet's DP width: the
// consumer a single training job runs on.
func testTenant(t *testing.T, fleet *Fleet, cfg ServiceConfig) *Tenant {
	t.Helper()
	tn, err := testService(t, fleet, cfg).Register(TenantConfig{Name: "only", DP: fleetConfig().DPSize})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// sameBatch fails the test when two rank batches differ in any
// microbatch, sample index or token payload.
func sameBatch(t *testing.T, got, want *RankBatch, iter int64, rank int) {
	t.Helper()
	if len(got.Microbatches) != len(want.Microbatches) {
		t.Fatalf("iter %d rank %d: %d microbatches, want %d",
			iter, rank, len(got.Microbatches), len(want.Microbatches))
	}
	for j := range got.Microbatches {
		if len(got.Microbatches[j]) != len(want.Microbatches[j]) {
			t.Fatalf("iter %d rank %d mb %d: %d samples, want %d",
				iter, rank, j, len(got.Microbatches[j]), len(want.Microbatches[j]))
		}
		for k := range got.Microbatches[j] {
			g, w := got.Microbatches[j][k], want.Microbatches[j][k]
			if g.SampleIndex != w.SampleIndex || !bytes.Equal(g.TokenPayload, w.TokenPayload) {
				t.Fatalf("iter %d rank %d mb %d sample %d differs", iter, rank, j, k)
			}
		}
	}
}

// A 1-tenant service fetch must return exactly what a direct
// tenant-keyed fetch from every single producer returns: producers are
// stateless deterministic functions of the request, so routing cannot
// change the data.
func TestPoolMatchesDirectFetch(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	tn := testTenant(t, fleet, ServiceConfig{})

	ctx := context.Background()
	for _, addr := range fleet.Addrs() {
		client, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for iter := int64(0); iter < 3; iter++ {
			for rank := 0; rank < 2; rank++ {
				got, err := tn.Fetch(ctx, iter, rank)
				if err != nil {
					t.Fatal(err)
				}
				want, err := client.FetchTenant(ctx, 0, 2, iter, rank)
				if err != nil {
					t.Fatal(err)
				}
				sameBatch(t, got, want, iter, rank)
			}
		}
	}
}

// Tenant 0 at the producers' own DP width is byte-identical to a bare
// Client.Fetch, the path the Fig. 17 reproduction and the
// preprocessing example use: the tenant-keyed and the plain wire ops
// split a batch identically when the widths agree.
func TestServiceTenantZeroMatchesClientFetch(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	tn := testTenant(t, fleet, ServiceConfig{})
	client, err := Dial(fleet.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	for iter := int64(0); iter < 4; iter++ {
		for rank := 0; rank < 2; rank++ {
			got, err := tn.Fetch(ctx, iter, rank)
			if err != nil {
				t.Fatal(err)
			}
			want, err := client.Fetch(ctx, iter, rank)
			if err != nil {
				t.Fatal(err)
			}
			sameBatch(t, got, want, iter, rank)
		}
	}
}

// Killing a producer mid-stream must not fail a single fetch: the
// service fails over to survivors, records the failovers, and picks
// the dead member back up after it rejoins and its cooldown expires.
func TestPoolFailoverAndRecovery(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	stats := &metrics.PoolStats{}
	tn := testTenant(t, fleet, ServiceConfig{Stats: stats})

	ctx := context.Background()
	fetchAll := func(lo, hi int64) {
		t.Helper()
		for iter := lo; iter < hi; iter++ {
			for rank := 0; rank < 2; rank++ {
				if _, err := tn.Fetch(ctx, iter, rank); err != nil {
					t.Fatalf("iter %d rank %d: %v", iter, rank, err)
				}
			}
		}
	}
	fetchAll(0, 2)
	if got := stats.Snapshot().Failovers; got != 0 {
		t.Fatalf("healthy fleet recorded %d failovers", got)
	}

	if err := fleet.FailProducer(1); err != nil {
		t.Fatal(err)
	}
	fetchAll(2, 6) // primaries rotate over all members, so some land on 1
	snap := stats.Snapshot()
	if snap.Failovers == 0 {
		t.Fatal("no failovers recorded with a dead producer")
	}

	if err := fleet.JoinProducer(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // past the failure cooldown
	fetchAll(6, 10)
	after := stats.Snapshot()
	if after.Fetches != 20 {
		t.Fatalf("fetches = %d, want 20", after.Fetches)
	}
	// The rejoined member serves again: over iters 6..9 x 2 ranks, at
	// least one primary lands on member 1, and those fetches must not
	// add failovers once it is back.
	if after.Failovers != snap.Failovers {
		t.Errorf("failovers kept climbing after rejoin: %d -> %d", snap.Failovers, after.Failovers)
	}
}

// Bounded admission: with the only slot taken, a fetch is rejected
// with ErrPoolSaturated instead of queueing unboundedly.
func TestPoolBoundedAdmission(t *testing.T) {
	cfg := fleetConfig()
	cfg.Source = slowSource{fixedSource{images: 1, resolution: 32, seqLen: 128}, 300 * time.Millisecond}
	fleet, err := StartFleet(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	stats := &metrics.PoolStats{}
	tn := testTenant(t, fleet, ServiceConfig{
		Capacity:     1,
		AdmitTimeout: 30 * time.Millisecond,
		Stats:        stats,
	})

	ctx := context.Background()
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := tn.Fetch(ctx, 0, 0) // slow build holds the only slot
		done <- err
	}()
	<-started
	time.Sleep(20 * time.Millisecond)
	if _, err := tn.Fetch(ctx, 0, 1); !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("saturated service returned %v, want ErrPoolSaturated", err)
	}
	if got := stats.Snapshot().Rejections; got != 1 {
		t.Errorf("rejections = %d, want 1", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("admitted fetch failed: %v", err)
	}
}

// The tenant cache serves repeated fetches (failure-recovery rewinds)
// and evicts against the minimum per-rank watermark.
func TestPoolCacheHitAndWatermarkEviction(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	stats := &metrics.PoolStats{}
	tn := testTenant(t, fleet, ServiceConfig{Stats: stats})

	ctx := context.Background()
	if _, err := tn.Fetch(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Fetch(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
	if snap.CacheHitRate != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", snap.CacheHitRate)
	}
	// Advance rank 0's watermark: iterations below it leave the cache.
	for iter := int64(1); iter < 4; iter++ {
		if _, err := tn.Fetch(ctx, iter, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tn.Fetch(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := stats.Snapshot().CacheMisses; got != snap.CacheMisses+4 {
		t.Errorf("evicted iteration 0 should re-fetch as a miss: misses = %d, want %d",
			got, snap.CacheMisses+4)
	}
}

// CacheCap backstops the tenant cache: a rank that stops fetching
// freezes the watermark floor, but the cache still stays bounded.
func TestPoolCacheCapBoundsStalledRank(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	tn := testTenant(t, fleet, ServiceConfig{CacheCap: 4})

	ctx := context.Background()
	if _, err := tn.Fetch(ctx, 0, 1); err != nil { // rank 1 stalls at 0
		t.Fatal(err)
	}
	for iter := int64(0); iter < 10; iter++ {
		if _, err := tn.Fetch(ctx, iter, 0); err != nil {
			t.Fatal(err)
		}
	}
	tn.cmu.Lock()
	n := len(tn.cache)
	tn.cmu.Unlock()
	if n > 4 {
		t.Fatalf("tenant cache grew to %d entries with CacheCap 4", n)
	}
}

// A protocol-level server rejection is deterministic, so the service
// must not fail over on it — every producer would answer the same.
func TestPoolServerErrorDoesNotFailOver(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	stats := &metrics.PoolStats{}
	tn := testTenant(t, fleet, ServiceConfig{Stats: stats})

	_, err = tn.Fetch(context.Background(), 0, 99)
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("bad rank returned %v, want ServerError", err)
	}
	if got := stats.Snapshot().Failovers; got != 0 {
		t.Errorf("server error triggered %d failovers", got)
	}
}

// Tenants fetch at their own DP widths over one shared fleet: the
// concatenation of every rank's samples must cover the same global
// batch whatever the width, and the same (tenant, iter) at two widths
// must not collide in any cache.
func TestServiceTenantsAtDifferentDPWidths(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{})

	ctx := context.Background()
	collect := func(tn *Tenant, dp int) map[int64]int {
		t.Helper()
		samples := map[int64]int{}
		for rank := 0; rank < dp; rank++ {
			rb, err := tn.Fetch(ctx, 0, rank)
			if err != nil {
				t.Fatal(err)
			}
			for _, mb := range rb.Microbatches {
				for _, p := range mb {
					samples[p.SampleIndex]++
				}
			}
		}
		return samples
	}
	wide, err := svc.Register(TenantConfig{Name: "wide", DP: 4})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := svc.Register(TenantConfig{Name: "narrow", DP: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := collect(wide, 4)
	n := collect(narrow, 2)
	if len(w) != 8 || len(n) != 8 {
		t.Fatalf("global batch coverage: wide %d, narrow %d samples, want 8 each", len(w), len(n))
	}
	for idx, c := range w {
		if n[idx] != c {
			t.Fatalf("sample %d: wide count %d, narrow count %d — widths changed the batch", idx, c, n[idx])
		}
	}
}

// The weighted fair queue drains contended admissions deterministically:
// smallest virtual finish tag (grants/weight) first, ties to the lower
// tenant id, FIFO within a tenant. With weights 2:1 and arrival order
// A,A,A,A,B,B,B,B on one slot, the grant order is A A B A A B B B.
func TestServiceWFQGrantOrder(t *testing.T) {
	svc, err := NewService(ServiceConfig{Addrs: []string{"127.0.0.1:1"}, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := svc.Register(TenantConfig{Name: "a", Weight: 2, MaxInflight: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Register(TenantConfig{Name: "b", Weight: 1, MaxInflight: 100})
	if err != nil {
		t.Fatal(err)
	}

	svc.mu.Lock()
	svc.shared = svc.cfg.Capacity // saturate the tier
	var all []*svcWaiter
	for _, tn := range []*Tenant{a, a, a, a, b, b, b, b} {
		w := &svcWaiter{t: tn, ch: make(chan struct{})}
		svc.waiters = append(svc.waiters, w)
		all = append(all, w)
	}
	svc.mu.Unlock()

	granted := map[*svcWaiter]bool{}
	var order []string
	for i := 0; i < len(all); i++ {
		svc.mu.Lock()
		svc.shared-- // one fetch finished, its slot frees
		svc.grantLocked()
		for _, w := range all {
			if w.granted && !granted[w] {
				granted[w] = true
				order = append(order, w.t.name)
			}
		}
		svc.mu.Unlock()
	}
	want := []string{"a", "a", "b", "a", "a", "b", "b", "b"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

// Per-tenant quotas isolate tenants: a tenant saturating its own quota
// is rejected with ErrPoolSaturated (and only its rejection counter
// moves) while another tenant keeps fetching through the same shared
// tier.
func TestServiceQuotaSaturationIsolatesTenants(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	stats := &metrics.PoolStats{}
	svc := testService(t, fleet, ServiceConfig{
		AdmitTimeout: 30 * time.Millisecond,
		Stats:        stats,
	})
	a, err := svc.Register(TenantConfig{Name: "a", MaxInflight: 1, DP: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Register(TenantConfig{Name: "b", MaxInflight: 2, DP: 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	// Pin tenant A's only admission slot, as an in-flight fetch would.
	if err := svc.acquire(ctx, a); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Fetch(ctx, 0, 0); !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("saturated tenant fetched with %v, want ErrPoolSaturated", err)
	}
	if _, err := b.Fetch(ctx, 0, 0); err != nil {
		t.Fatalf("tenant b starved by tenant a's saturation: %v", err)
	}
	svc.release(a)

	snaps := svc.TenantSnapshots()
	if got := snaps["a"].Rejections; got != 1 {
		t.Errorf("tenant a rejections = %d, want 1", got)
	}
	if got := snaps["b"].Rejections; got != 0 {
		t.Errorf("tenant b rejections = %d, want 0", got)
	}
	if got := svc.Snapshot().Rejections; got != 1 {
		t.Errorf("aggregate rejections = %d, want 1", got)
	}
	// The freed quota admits tenant A again.
	if _, err := a.Fetch(ctx, 0, 1); err != nil {
		t.Fatalf("tenant a still rejected after its slot freed: %v", err)
	}
}

// Cache partitions are per-tenant: one tenant racing far ahead must
// never evict a lagging tenant's batches — the laggard's re-fetch is a
// cache hit, not a rebuild.
func TestServiceCachePartitioning(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{CacheCap: 4})
	lag, err := svc.Register(TenantConfig{Name: "laggard", DP: 2})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := svc.Register(TenantConfig{Name: "fast", DP: 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if _, err := lag.Fetch(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	// The fast tenant churns far past its own CacheCap.
	for iter := int64(0); iter < 12; iter++ {
		if _, err := fast.Fetch(ctx, iter, 0); err != nil {
			t.Fatal(err)
		}
	}
	fast.cmu.Lock()
	fastN := len(fast.cache)
	fast.cmu.Unlock()
	if fastN > 4 {
		t.Fatalf("fast tenant's partition grew to %d entries with CacheCap 4", fastN)
	}
	// The laggard's batch survived the other tenant's churn.
	if _, err := lag.Fetch(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := lag.Snapshot().CacheHits; got != 1 {
		t.Errorf("laggard cache hits = %d, want 1 (its partition was evicted by another tenant)", got)
	}
}

// Quota resizes act immediately: shrinking to zero blocks the tenant
// (rejection after AdmitTimeout), growing re-grants queued waiters.
func TestServiceSetQuota(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{AdmitTimeout: 30 * time.Millisecond})
	tn, err := svc.Register(TenantConfig{Name: "t", DP: 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	tn.SetQuota(0)
	if _, err := tn.Fetch(ctx, 0, 0); !errors.Is(err, ErrPoolSaturated) {
		t.Fatalf("zero-quota tenant fetched with %v, want ErrPoolSaturated", err)
	}
	tn.SetQuota(2)
	if got := tn.MaxInflight(); got != 2 {
		t.Fatalf("MaxInflight = %d after SetQuota(2)", got)
	}
	if _, err := tn.Fetch(ctx, 0, 0); err != nil {
		t.Fatalf("re-grown tenant still rejected: %v", err)
	}
}

// A dead producer degrades every tenant fairly: both tenants keep
// fetching through failover, both record failovers, and the rejoined
// member serves again after its cooldown.
func TestServiceFailoverAcrossTenants(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{})
	a, err := svc.Register(TenantConfig{Name: "a", DP: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Register(TenantConfig{Name: "b", DP: 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if err := fleet.FailProducer(0); err != nil {
		t.Fatal(err)
	}
	// Two consecutive iterations cover both parities of the primary
	// assignment, so every tenant lands on the dead member at least
	// once whatever its id offset.
	for iter := int64(0); iter < 2; iter++ {
		for rank := 0; rank < 2; rank++ {
			if _, err := a.Fetch(ctx, iter, rank); err != nil {
				t.Fatalf("tenant a iter %d rank %d: %v", iter, rank, err)
			}
			if _, err := b.Fetch(ctx, iter, rank); err != nil {
				t.Fatalf("tenant b iter %d rank %d: %v", iter, rank, err)
			}
		}
	}
	snaps := svc.TenantSnapshots()
	if snaps["a"].Failovers == 0 || snaps["b"].Failovers == 0 {
		t.Fatalf("failovers a=%d b=%d, want both > 0 (fair degradation)",
			snaps["a"].Failovers, snaps["b"].Failovers)
	}

	if err := fleet.JoinProducer(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // past the failure cooldown
	before := svc.Snapshot().Failovers
	for iter := int64(2); iter < 4; iter++ {
		for rank := 0; rank < 2; rank++ {
			if _, err := a.Fetch(ctx, iter, rank); err != nil {
				t.Fatal(err)
			}
		}
	}
	if after := svc.Snapshot().Failovers; after != before {
		t.Errorf("failovers kept climbing after rejoin: %d -> %d", before, after)
	}
}

// Duplicate tenant names and registration after Close are rejected.
func TestServiceRegisterValidation(t *testing.T) {
	svc, err := NewService(ServiceConfig{Addrs: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register(TenantConfig{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register(TenantConfig{Name: "a"}); err == nil {
		t.Fatal("duplicate tenant name accepted")
	}
	if _, err := svc.Register(TenantConfig{}); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	svc.Close()
	if _, err := svc.Register(TenantConfig{Name: "b"}); err == nil {
		t.Fatal("closed service accepted a tenant")
	}
}
