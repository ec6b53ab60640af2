package preprocess

import (
	"errors"
	"sort"
	"testing"
	"time"

	"disttrain/internal/reorder"
)

// Close must wait for readahead builds: the readahead goroutines are
// registered with the server WaitGroup and re-check closed before
// building, so no build touches the Source after Close returns.
func TestCloseWaitsForReadahead(t *testing.T) {
	cfg := Config{
		Source:      slowSource{fixedSource{images: 1, resolution: 32, seqLen: 128}, 2 * time.Millisecond},
		GlobalBatch: 4, DPSize: 1, Microbatch: 1, Workers: 2, Readahead: 3,
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.FetchTenant(0, cfg.DPSize, 0, 0); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	after := srv.builds.Load()
	time.Sleep(50 * time.Millisecond)
	if got := srv.builds.Load(); got != after {
		t.Fatalf("builds kept running after Close: %d -> %d", after, got)
	}
	// A closed server refuses new work with the shutdown sentinel — a
	// transport-level condition the handler must never answer as an
	// opError frame (the pool would refuse to fail over on it).
	if _, err := srv.FetchTenant(0, cfg.DPSize, 1, 0); !errors.Is(err, errServerClosed) {
		t.Errorf("closed server returned %v, want errServerClosed", err)
	}
	if srv.begin() {
		t.Error("closed server admitted background work")
	}
}

// The cache evicts against the minimum per-rank fetch watermark: a
// rank lagging far behind the newest build keeps its batch cached
// instead of having it evicted and rebuilt on every fetch.
func TestEvictionHonoursLaggingRank(t *testing.T) {
	cfg := Config{
		Source:      fixedSource{images: 1, resolution: 32, seqLen: 128},
		GlobalBatch: 4, DPSize: 2, Microbatch: 1, Workers: 2,
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Both ranks fetch iteration 0, then rank 0 races far ahead of the
	// old Readahead+2 eviction horizon.
	for rank := 0; rank < 2; rank++ {
		if _, err := srv.FetchTenant(0, cfg.DPSize, 0, rank); err != nil {
			t.Fatal(err)
		}
	}
	for iter := int64(1); iter <= 10; iter++ {
		if _, err := srv.FetchTenant(0, cfg.DPSize, iter, 0); err != nil {
			t.Fatal(err)
		}
	}
	builds := srv.builds.Load()
	// Rank 1 is 10 iterations behind: its next batches must all be
	// cache hits, not rebuilds.
	for iter := int64(1); iter <= 10; iter++ {
		if _, err := srv.FetchTenant(0, cfg.DPSize, iter, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.builds.Load(); got != builds {
		t.Fatalf("lagging rank forced %d rebuilds", got-builds)
	}
	// Once every rank passed an iteration, it leaves the cache.
	srv.mu.Lock()
	var cached []int64
	for k := range srv.cache {
		cached = append(cached, k.iter)
	}
	srv.mu.Unlock()
	sort.Slice(cached, func(a, b int) bool { return cached[a] < cached[b] })
	if len(cached) == 0 || cached[0] < 10 {
		t.Errorf("cache retains iterations below the min watermark: %v", cached)
	}
}

// CacheCap backstops the watermark eviction: a rank that never fetches
// (a dead consumer) freezes the watermark floor, but the cache still
// stays bounded — the oldest iterations drop first.
func TestCacheCapBoundsDeadRank(t *testing.T) {
	cfg := Config{
		Source:      fixedSource{images: 1, resolution: 32, seqLen: 128},
		GlobalBatch: 4, DPSize: 2, Microbatch: 1, Workers: 2, CacheCap: 4,
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for iter := int64(0); iter < 20; iter++ {
		if _, err := srv.FetchTenant(0, cfg.DPSize, iter, 0); err != nil {
			t.Fatal(err)
		}
	}
	srv.mu.Lock()
	n := len(srv.cache)
	_, newestCached := srv.cache[buildKey{19, 2}]
	srv.mu.Unlock()
	if n > 4 {
		t.Fatalf("cache grew to %d iterations with CacheCap 4", n)
	}
	if !newestCached {
		t.Error("cap evicted the newest iteration instead of the oldest")
	}
}

// The producer's rebalance moves surplus smallest-cost first and
// preserves the sample multiset, over the groups Algorithm 1's
// partition actually emits (non-increasing cost within each group).
func TestRebalanceProcessedSmallestFirstAndPreservesMultiset(t *testing.T) {
	// Two heavy samples claim groups 0 and 1 alone; the light ones pile
	// into group 2, whose surplus must refill groups 0 and 1 cheapest
	// first.
	costs := []float64{900, 10, 800, 30, 10, 20, 40, 30, 10}
	var part reorder.Partitioner
	groups, err := part.Partition(costs, 3)
	if err != nil {
		t.Fatal(err)
	}
	var surplus []int
	for _, g := range groups {
		if len(g) > 3 {
			surplus = append(surplus, g[3:]...)
		}
	}
	if len(surplus) < 2 {
		t.Fatalf("partition %v leaves no surplus to move", groups)
	}
	sort.SliceStable(surplus, func(a, b int) bool { return costs[surplus[a]] < costs[surplus[b]] })

	count := func(groups [][]int) map[int]int {
		m := map[int]int{}
		for _, g := range groups {
			for _, i := range g {
				m[i]++
			}
		}
		return m
	}
	before := count(groups)
	short := make([]int, len(groups))
	for d, g := range groups {
		short[d] = 3 - len(g)
	}
	out := part.Rebalance(groups, 3, costs)
	after := count(out)
	for i, n := range before {
		if after[i] != n {
			t.Fatalf("sample %d count changed: %d -> %d", i, n, after[i])
		}
	}
	// Underfull groups, in group order, take the surplus cheapest first.
	next := 0
	for d, g := range out {
		if len(g) != 3 {
			t.Fatalf("group %d has %d samples", d, len(g))
		}
		for k := 0; k < short[d]; k++ {
			if got := g[3-short[d]+k]; got != surplus[next] {
				t.Errorf("group %d slot %d got sample %d (cost %g), want %d (cost %g)",
					d, 3-short[d]+k, got, costs[got], surplus[next], costs[surplus[next]])
			}
			next++
		}
	}
}
