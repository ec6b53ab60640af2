package preprocess

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"disttrain/internal/metrics"
)

// Service is the consumer side of disaggregated preprocessing (§5,
// §8): one elastic producer fleet multiplexing every tenant's (tenant,
// iteration, rank) fetches. A single job is a 1-tenant Service; a
// fleet registers every job on one Service, which makes the sharing
// safe and fair:
//
//   - Per-tenant admission quotas: each tenant holds at most its quota
//     of in-flight fetches; a tenant saturating its quota is rejected
//     with ErrPoolSaturated after AdmitTimeout while every other tenant
//     keeps fetching — one tenant cannot starve the tier.
//   - Deterministic weighted fair queueing over the shared capacity:
//     when more fetches want producers than Capacity allows, grants go
//     to the eligible tenant with the smallest virtual finish tag
//     (cumulative grants / weight, ties by registration order), so a
//     weight-2 tenant gets twice the grant rate of a weight-1 tenant —
//     weights come from fleet priority classes.
//   - Partitioned caches: every tenant owns a private batch cache with
//     its own watermark floor, so one tenant's lagging rank can never
//     evict another tenant's batches.
//
// Failover: every fetch has a deterministic primary member, a pure
// function of (tenant, iteration, rank); dead members sit out a
// cooldown, and batch contents never change across members —
// producers are deterministic functions of the request.
type Service struct {
	cfg     ServiceConfig
	members []*poolMember
	stats   *metrics.PoolStats // aggregate; tenants record into labeled children

	mu      sync.Mutex
	tenants []*Tenant
	shared  int // in-flight fetches across all tenants
	waiters []*svcWaiter
	closed  bool
}

// ServiceConfig parameterises a shared preprocessing service.
type ServiceConfig struct {
	// Addrs lists the producer servers. Assignment and failover order
	// are deterministic in this order.
	Addrs []string
	// Capacity bounds in-flight fetches across all tenants — the
	// producer-side concurrency the weighted fair queue arbitrates
	// (default 2*len(Addrs)).
	Capacity int
	// AdmitTimeout is how long a fetch waits for admission (quota and
	// shared capacity) before being rejected with ErrPoolSaturated
	// (default 5s).
	AdmitTimeout time.Duration
	// FailureCooldown, DialTimeout and FetchTimeout are the failover
	// knobs: how long a failed producer sits out, and the bounds on
	// one connection attempt and one request (defaults 2s, 2s, 60s).
	FailureCooldown time.Duration
	DialTimeout     time.Duration
	FetchTimeout    time.Duration
	// CacheCap bounds each tenant's private batch cache in entries
	// (default 256), even when a stalled rank freezes the watermark
	// floor.
	CacheCap int
	// Stats, when non-nil, receives the aggregate counters; per-tenant
	// counters land in labeled children (metrics.PoolStats.Labeled).
	// Nil builds a private aggregate, still readable via Snapshot.
	Stats *metrics.PoolStats
}

// TenantConfig registers one tenant with the service.
type TenantConfig struct {
	// Name labels the tenant in metrics; must be unique and non-empty.
	Name string
	// Weight is the tenant's fair-queueing weight (default 1). The
	// fleet derives it from the job's priority class.
	Weight int
	// MaxInflight is the tenant's admission quota (default the
	// service Capacity — an uncontended tenant may use the whole tier).
	MaxInflight int
	// DP is the tenant's initial data-parallel width; the front-end
	// may change it later via SetDP (elastic resize).
	DP int
}

// svcWaiter is one fetch waiting for admission.
type svcWaiter struct {
	t       *Tenant
	ch      chan struct{}
	granted bool
}

var errServiceClosed = errors.New("preprocess: service closed")

// ErrPoolSaturated reports a fetch rejected by bounded admission.
var ErrPoolSaturated = errors.New("preprocess: pool saturated, fetch rejected")

// NewService builds a shared service over the given producer
// addresses. Connections are dialed lazily on first use.
func NewService(cfg ServiceConfig) (*Service, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("preprocess: service needs at least one producer address")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 2 * len(cfg.Addrs)
	}
	if cfg.AdmitTimeout <= 0 {
		cfg.AdmitTimeout = 5 * time.Second
	}
	if cfg.FailureCooldown <= 0 {
		cfg.FailureCooldown = 2 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 60 * time.Second
	}
	if cfg.CacheCap <= 0 {
		cfg.CacheCap = 256
	}
	stats := cfg.Stats
	if stats == nil {
		stats = &metrics.PoolStats{}
	}
	s := &Service{cfg: cfg, stats: stats}
	for _, addr := range cfg.Addrs {
		s.members = append(s.members, &poolMember{addr: addr})
	}
	return s, nil
}

// Size returns the number of producer members.
func (s *Service) Size() int { return len(s.members) }

// Snapshot returns the aggregate counters across all tenants.
func (s *Service) Snapshot() metrics.PoolSnapshot { return s.stats.Snapshot() }

// TenantSnapshots returns the per-tenant counters, keyed by tenant
// name.
func (s *Service) TenantSnapshots() map[string]metrics.PoolSnapshot {
	return s.stats.LabeledSnapshots()
}

// Register adds a tenant and returns its fetch handle. Tenant ids are
// assigned in registration order — the id feeds the deterministic
// primary-member assignment, so registration order is part of the
// determinism contract.
func (s *Service) Register(cfg TenantConfig) (*Tenant, error) {
	if cfg.Name == "" {
		return nil, errors.New("preprocess: tenant needs a name")
	}
	if cfg.Weight <= 0 {
		cfg.Weight = 1
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = s.cfg.Capacity
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errServiceClosed
	}
	for _, t := range s.tenants {
		if t.name == cfg.Name {
			return nil, fmt.Errorf("preprocess: tenant %q already registered", cfg.Name)
		}
	}
	t := &Tenant{
		svc: s, id: len(s.tenants), name: cfg.Name,
		weight: cfg.Weight, quota: cfg.MaxInflight,
		cache:     map[tenantKey]*RankBatch{},
		watermark: map[int]int64{},
		stats:     s.stats.Labeled(cfg.Name),
	}
	t.dp.Store(int64(cfg.DP))
	s.tenants = append(s.tenants, t)
	return t, nil
}

// Close tears down every member connection and fails all waiting
// admissions. In-flight fetches may finish with errors.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	waiters := s.waiters
	s.waiters = nil
	s.mu.Unlock()
	for _, w := range waiters {
		close(w.ch) // granted stays false: acquire reports the close
	}
	for _, m := range s.members {
		m.mu.Lock()
		m.closed = true
		if m.client != nil {
			m.client.Close()
			m.client = nil
		}
		m.mu.Unlock()
	}
}

// acquire admits one fetch for tenant t: the tenant must be under its
// quota and the tier under its shared capacity. Contended admissions
// queue and are granted in weighted-fair order; after AdmitTimeout the
// fetch is rejected with ErrPoolSaturated.
func (s *Service) acquire(ctx context.Context, t *Tenant) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errServiceClosed
	}
	// Uncontended fast path — only when nobody is queued, so a waiter
	// can never be overtaken by a later arrival.
	if len(s.waiters) == 0 && t.inflight < t.quota && s.shared < s.cfg.Capacity {
		t.inflight++
		t.granted++
		s.shared++
		s.mu.Unlock()
		return nil
	}
	w := &svcWaiter{t: t, ch: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.grantLocked()
	s.mu.Unlock()

	timer := time.NewTimer(s.cfg.AdmitTimeout)
	defer timer.Stop()
	select {
	case <-w.ch:
		if !w.granted {
			return errServiceClosed
		}
		return nil
	case <-ctx.Done():
		if s.abandon(w) {
			return ctx.Err()
		}
		// Lost the race: the grant landed first, so the slot is ours.
		return nil
	case <-timer.C:
		if s.abandon(w) {
			t.stats.RecordRejection()
			return ErrPoolSaturated
		}
		return nil
	}
}

// abandon removes a timed-out or cancelled waiter. It reports false
// when the waiter was already granted (or the service closed) — the
// caller owns the outcome it was handed instead.
func (s *Service) abandon(w *svcWaiter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.waiters {
		if q == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return true
		}
	}
	return !w.granted
}

// release returns one admission slot and hands it to the next waiter
// in weighted-fair order.
func (s *Service) release(t *Tenant) {
	s.mu.Lock()
	t.inflight--
	s.shared--
	s.grantLocked()
	s.mu.Unlock()
}

// grantLocked hands free capacity to waiters: among tenants with an
// eligible waiter (under quota, FIFO within each tenant), the one with
// the smallest virtual finish tag — (grants+1)/weight, ties broken by
// tenant id — goes first. This is deterministic start-time fair
// queueing: for a fixed arrival order the grant order is a pure
// function of weights, so a weight-2 tenant drains twice as fast as a
// weight-1 tenant under contention. Callers hold s.mu.
func (s *Service) grantLocked() {
	for s.shared < s.cfg.Capacity && len(s.waiters) > 0 {
		best := -1
		var bestTag float64
		seen := make(map[*Tenant]bool, len(s.waiters))
		for i, w := range s.waiters {
			t := w.t
			if seen[t] {
				continue // FIFO within a tenant: only its first waiter competes
			}
			seen[t] = true
			if t.inflight >= t.quota {
				continue
			}
			tag := float64(t.granted+1) / float64(t.weight)
			if best < 0 || tag < bestTag || (tag == bestTag && t.id < s.waiters[best].t.id) {
				best, bestTag = i, tag
			}
		}
		if best < 0 {
			return // capacity free but every waiting tenant is at quota
		}
		w := s.waiters[best]
		s.waiters = append(s.waiters[:best], s.waiters[best+1:]...)
		w.t.inflight++
		w.t.granted++
		s.shared++
		w.granted = true
		close(w.ch)
	}
}

// fetchWithFailover walks the failover ring starting at the fetch's
// deterministic primary, tenant-offset so different tenants spread
// their load across different members. Members inside their failure
// cooldown are skipped (each skip is a failover) unless every member
// is down, in which case all are retried — the path through which a
// recovered fleet comes back without external coordination.
func (s *Service) fetchWithFailover(ctx context.Context, t *Tenant, dp int, iter int64, rank int) (*RankBatch, error) {
	n := len(s.members)
	prim := int((uint64(iter)*1000003 + uint64(rank) + uint64(t.id)*7919) % uint64(n))
	now := time.Now()
	allDown := true
	for _, m := range s.members {
		if m.available(now) {
			allDown = false
			break
		}
	}
	var lastErr error
	for k := 0; k < n; k++ {
		m := s.members[(prim+k)%n]
		if !allDown && !m.available(now) {
			t.stats.RecordFailover()
			continue
		}
		rb, err := m.fetchTenant(ctx, s.cfg.DialTimeout, s.cfg.FetchTimeout, uint32(t.id), dp, iter, rank)
		if err == nil {
			return rb, nil
		}
		var se *ServerError
		if errors.As(err, &se) {
			// A protocol-level rejection is deterministic: every
			// producer would answer the same, so failing over only
			// multiplies the error.
			return nil, err
		}
		lastErr = err
		m.markDown(now.Add(s.cfg.FailureCooldown))
		t.stats.RecordFailover()
	}
	return nil, fmt.Errorf("preprocess: all %d producers failed for tenant %s iter %d rank %d: %w",
		n, t.name, iter, rank, lastErr)
}

// tenantKey identifies one cached batch: tenants at different DP
// widths receive different splits of the same iteration, so the width
// is part of the key (a resize must never serve a stale-geometry
// batch).
type tenantKey struct {
	iter int64
	rank int
	dp   int
}

// Tenant is one tenant's fetch handle on a Service; the trainer's
// PoolSource drives it.
type Tenant struct {
	svc    *Service
	id     int
	name   string
	weight int
	dp     atomic.Int64

	// quota, inflight and granted are guarded by svc.mu (they are the
	// fair queue's state).
	quota    int
	inflight int
	granted  int64

	// The tenant-private cache partition, guarded by the tenant's own
	// lock: per-tenant watermark floors mean one tenant's laggard can
	// never evict another tenant's batches.
	cmu       sync.Mutex
	cache     map[tenantKey]*RankBatch
	watermark map[int]int64
	stats     *metrics.PoolStats
}

// Name returns the tenant's registered name.
func (t *Tenant) Name() string { return t.name }

// MaxInflight returns the tenant's admission quota; callers fanning
// out concurrent fetches should not exceed it or they will see
// ErrPoolSaturated under load.
func (t *Tenant) MaxInflight() int {
	t.svc.mu.Lock()
	defer t.svc.mu.Unlock()
	return t.quota
}

// SetQuota resizes the tenant's admission quota (floor 0 = fully
// blocked) and re-runs the grant loop — the fleet resizes quotas
// alongside lease resizes.
func (t *Tenant) SetQuota(n int) {
	if n < 0 {
		n = 0
	}
	t.svc.mu.Lock()
	t.quota = n
	t.svc.grantLocked()
	t.svc.mu.Unlock()
}

// SetDP announces the tenant's current data-parallel width; the
// front-end calls it before each fan-out, so elastic lease resizes
// reshape the producer-side split without re-registering. Watermark
// entries for ranks the new geometry no longer has are dropped so
// they cannot freeze the eviction floor.
func (t *Tenant) SetDP(dp int) {
	if dp < 1 {
		return
	}
	if t.dp.Swap(int64(dp)) == int64(dp) {
		return
	}
	t.cmu.Lock()
	for rank := range t.watermark {
		if rank >= dp {
			delete(t.watermark, rank)
		}
	}
	t.cmu.Unlock()
}

// Snapshot returns the tenant's counters.
func (t *Tenant) Snapshot() metrics.PoolSnapshot { return t.stats.Snapshot() }

// Fetch returns one (iteration, rank) batch for this tenant at its
// announced DP width, serving from the tenant's cache partition when
// possible and failing over across the shared producers otherwise.
func (t *Tenant) Fetch(ctx context.Context, iter int64, rank int) (*RankBatch, error) {
	dp := int(t.dp.Load())
	if dp < 1 {
		dp = 1
	}
	if err := t.svc.acquire(ctx, t); err != nil {
		return nil, err
	}
	defer t.svc.release(t)

	key := tenantKey{iter, rank, dp}
	t.cmu.Lock()
	if rb, ok := t.cache[key]; ok {
		t.cmu.Unlock()
		t.stats.RecordCacheHit()
		t.stats.RecordFetch(0)
		return rb, nil
	}
	t.cmu.Unlock()
	t.stats.RecordCacheMiss()

	start := time.Now()
	rb, err := t.svc.fetchWithFailover(ctx, t, dp, iter, rank)
	if err != nil {
		return nil, err
	}
	t.stats.RecordFetch(time.Since(start).Seconds())

	t.cmu.Lock()
	t.cache[key] = rb
	if w, ok := t.watermark[rank]; !ok || iter > w {
		t.watermark[rank] = iter
	}
	t.evictLocked()
	t.cmu.Unlock()
	return rb, nil
}

// evictLocked drops cache entries below the tenant's own minimum
// per-rank watermark, with the service CacheCap as the oldest-first
// backstop — the producer cache's eviction contract, scoped to one
// tenant's partition. Callers hold t.cmu.
func (t *Tenant) evictLocked() {
	if len(t.watermark) > 0 {
		min := int64(0)
		first := true
		for _, w := range t.watermark {
			if first || w < min {
				min, first = w, false
			}
		}
		for k := range t.cache {
			if k.iter < min {
				delete(t.cache, k)
			}
		}
	}
	for len(t.cache) > t.svc.cfg.CacheCap {
		var oldest tenantKey
		first := true
		for k := range t.cache {
			if first || k.iter < oldest.iter || (k.iter == oldest.iter && k.rank < oldest.rank) {
				oldest, first = k, false
			}
		}
		delete(t.cache, oldest)
	}
}

// poolMember is one producer plus its health state.
type poolMember struct {
	addr string

	mu        sync.Mutex
	client    *Client
	downUntil time.Time
	closed    bool
}

// available reports whether the member is outside its failure cooldown.
func (m *poolMember) available(now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return now.After(m.downUntil)
}

// markDown opens the member's failure cooldown and drops its
// connection so the next attempt re-dials.
func (m *poolMember) markDown(until time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if until.After(m.downUntil) {
		m.downUntil = until
	}
	if m.client != nil {
		m.client.Close()
		m.client = nil
	}
}

// fetchTenant runs one tenant-keyed request at the tenant's DP width
// against this member. The member lock serialises requests on the
// shared connection (the Client serialises anyway; holding the lock
// keeps dial/teardown atomic with the request).
func (m *poolMember) fetchTenant(ctx context.Context, dialTO, fetchTO time.Duration, tenant uint32, dp int, iter int64, rank int) (*RankBatch, error) {
	return m.do(dialTO, fetchTO, func(c *Client) (*RankBatch, error) {
		return c.FetchTenant(ctx, tenant, dp, iter, rank)
	})
}

// do runs one request callback against this member's lazily-dialed
// client, dropping the connection on transport failure (a ServerError
// is a protocol answer: the connection stays).
func (m *poolMember) do(dialTO, fetchTO time.Duration, call func(*Client) (*RankBatch, error)) (*RankBatch, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errServiceClosed
	}
	if m.client == nil {
		c, err := DialTimeout(m.addr, dialTO)
		if err != nil {
			return nil, err
		}
		c.SetTimeout(fetchTO)
		m.client = c
	}
	rb, err := call(m.client)
	if err != nil {
		var se *ServerError
		if !errors.As(err, &se) {
			// Transport failure: the connection is suspect either way.
			m.client.Close()
			m.client = nil
		}
		return nil, err
	}
	return rb, nil
}
