package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"disttrain/internal/fleet"
	"disttrain/internal/scenario"
	"disttrain/internal/store"
	"disttrain/internal/trainer"
)

// span is one timed interval at a seam the benchmark drives: a pass, a
// fleet run, a round, a tenant step, a store call, a trace write or a
// layer probe. Times are offsets from the run's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(name string, parent int, start, end time.Duration) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// stepProbe is a per-tenant trainer.Controller that never switches
// plans: it marks the span from Pending(i), just before iteration i
// fetches its batch, to Observe, just after the iteration completes.
// The runtime calls both from the goroutine stepping the tenant, and
// the fleet steps a tenant at most once per round, so no lock is
// needed.
type stepProbe struct {
	origin time.Time
	start  time.Duration
	spans  [][2]time.Duration
}

func (c *stepProbe) Pending(int) *trainer.PlanSwitch {
	c.start = time.Since(c.origin)
	return nil
}

func (c *stepProbe) Observe(trainer.Observation) {
	c.spans = append(c.spans, [2]time.Duration{c.start, time.Since(c.origin)})
}

// timedStore wraps the plan cache's store.Store seam and counts and
// times every call. Safe for concurrent use: the planner pool and the
// round loop both reach the store.
type timedStore struct {
	inner  store.Store
	origin time.Time

	mu      sync.Mutex
	gets    int
	getHits int
	puts    int
	readB   int64
	writeB  int64
	getDur  []float64 // ms
	putDur  []float64 // ms
	putKeys map[string]bool
	ops     []storeOp
}

type storeOp struct {
	name       string
	start, end time.Duration
}

func newTimedStore(inner store.Store, origin time.Time) *timedStore {
	return &timedStore{inner: inner, origin: origin, putKeys: map[string]bool{}}
}

func (s *timedStore) Get(key string) ([]byte, bool, error) {
	t0 := time.Since(s.origin)
	b, ok, err := s.inner.Get(key)
	t1 := time.Since(s.origin)
	s.mu.Lock()
	s.gets++
	if ok {
		s.getHits++
		s.readB += int64(len(b))
	}
	s.getDur = append(s.getDur, ms(t1-t0))
	s.ops = append(s.ops, storeOp{"store.get", t0, t1})
	s.mu.Unlock()
	return b, ok, err
}

func (s *timedStore) Put(key string, payload []byte) error {
	t0 := time.Since(s.origin)
	err := s.inner.Put(key, payload)
	t1 := time.Since(s.origin)
	s.mu.Lock()
	s.puts++
	s.writeB += int64(len(payload))
	s.putKeys[key] = true
	s.putDur = append(s.putDur, ms(t1-t0))
	s.ops = append(s.ops, storeOp{"store.put", t0, t1})
	s.mu.Unlock()
	return err
}

// fleetRun is one fleet.Run call as the benchmark observed it through
// the OnRound callback.
type fleetRun struct {
	cfg   fleet.Config
	res   *fleet.Result
	start time.Duration
	wall  time.Duration
	// cb[r] is the offset of round r's callback from start.
	cb []time.Duration
	// leases records, per tenant id, every distinct lease it held at a
	// callback, in order of first sight.
	leases map[int][][]int
	// leaseErr is the first lease-invariant violation seen.
	leaseErr error
	probes   map[int]*stepProbe // Config.Jobs index -> controller
	store    *timedStore
}

// passRec is one measured pass: the unit the benchmark repeats for
// --seconds and takes medians over.
type passRec struct {
	traced   bool
	start    time.Duration
	wall     time.Duration
	cpu      time.Duration
	mem0     memCounters
	mem1     memCounters
	heapPeak uint64
	// runs are the pass's fleet runs until the pass is checked;
	// stats is what the report keeps of them afterwards.
	runs  []*fleetRun
	stats passStats

	traceStart  time.Duration
	traceWrite  time.Duration
	traceEvents int
	traceBytes  int64
}

// harness owns one benchmark run: its origin, working directory and
// (when traced) the span log.
type harness struct {
	origin time.Time
	dir    string
	procs  int
	seed   int64
	spans  *spanLog
	cur    *passRec
}

func (h *harness) now() time.Duration { return time.Since(h.origin) }

func (h *harness) sampleHeap() {
	if v := heapInUse(); v > h.cur.heapPeak {
		h.cur.heapPeak = v
	}
}

// controllers gives each eligible job spec its own step probe when the
// pass is traced. The fleet rejects a controller on a spec that a
// job-arrive, herd or storm event clones, so those tenants are timed
// only by their round spans.
func (h *harness) controllers(cfg *fleet.Config) map[int]*stepProbe {
	if !h.cur.traced {
		return nil
	}
	cloned := clonedSpecs(cfg.Scenario)
	probes := map[int]*stepProbe{}
	jobs := append([]fleet.JobSpec(nil), cfg.Jobs...)
	for i := range jobs {
		if cloned[i] {
			continue
		}
		p := &stepProbe{origin: h.origin}
		jobs[i].Train.Controller = p
		probes[i] = p
	}
	cfg.Jobs = jobs
	return probes
}

// clonedSpecs lists the job specs a fleet scenario instantiates again.
func clonedSpecs(sc scenario.Scenario) map[int]bool {
	out := map[int]bool{}
	sched, ok := sc.(*scenario.Schedule)
	if !ok {
		return out
	}
	for _, ev := range sched.Events() {
		switch ev.Kind {
		case scenario.JobArrive, scenario.PriorityArrive, scenario.PreemptStorm, scenario.Herd:
			out[ev.Job] = true
		}
	}
	return out
}

// runFleet executes one fleet run inside the current pass, recording
// round callbacks, heap samples and the lease invariant.
func (h *harness) runFleet(cfg fleet.Config, st *timedStore) (*fleetRun, error) {
	fr := &fleetRun{leases: map[int][][]int{}, store: st}
	fr.probes = h.controllers(&cfg)
	owner := make([]int, cfg.Cluster.Nodes)
	cfg.OnRound = func(ri fleet.RoundInfo) {
		fr.cb = append(fr.cb, h.now()-fr.start)
		h.sampleHeap()
		if fr.leaseErr == nil && ri.Round != len(fr.cb)-1 {
			fr.leaseErr = fmt.Errorf("round %d callback arrived as callback %d", ri.Round, len(fr.cb)-1)
		}
		if fr.leaseErr == nil {
			fr.leaseErr = checkLeases(ri, owner)
		}
		for id, nodes := range ri.Leases {
			seen := fr.leases[id]
			if len(seen) == 0 || !equalInts(seen[len(seen)-1], nodes) {
				fr.leases[id] = append(seen, append([]int(nil), nodes...))
			}
		}
	}
	fr.cfg = cfg
	fr.start = h.now()
	res, err := fleet.Run(cfg)
	fr.wall = h.now() - fr.start
	if err != nil {
		return nil, err
	}
	fr.res = res
	h.cur.runs = append(h.cur.runs, fr)
	return fr, nil
}

// checkLeases enforces the OnRound lease invariant: no node leased to
// two tenants, no failed node leased, no leased node listed free.
// owner is a reused buffer sized to the cluster.
func checkLeases(ri fleet.RoundInfo, owner []int) error {
	for i := range owner {
		owner[i] = -1
	}
	ids := make([]int, 0, len(ri.Leases))
	for id := range ri.Leases {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		for _, n := range ri.Leases[id] {
			if n < 0 || n >= len(owner) {
				return fmt.Errorf("round %d: tenant %d leases node %d outside the fleet", ri.Round, id, n)
			}
			if owner[n] >= 0 {
				return fmt.Errorf("round %d: node %d leased to tenants %d and %d", ri.Round, n, owner[n], id)
			}
			owner[n] = id
		}
	}
	for _, n := range ri.Failed {
		if owner[n] >= 0 {
			return fmt.Errorf("round %d: failed node %d leased to tenant %d", ri.Round, n, owner[n])
		}
	}
	for _, n := range ri.Free {
		if owner[n] >= 0 {
			return fmt.Errorf("round %d: free node %d leased to tenant %d", ri.Round, n, owner[n])
		}
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
