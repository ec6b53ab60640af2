package main

import (
	"sort"
	"strconv"
	"time"
)

// passStats is what a checked pass keeps for the report: counts and
// samples, summed over its fleet runs. The fleet results themselves
// (traces, per-iteration stats) are dropped once the pass is checked,
// so the heap does not grow with the number of passes.
type passStats struct {
	iters        int       // completed iterations
	jobs, failed int       // tenants attempted, tenants failed
	mfu          []float64 // completed jobs
	gaps, admits []float64 // ms
	steps        []float64 // ms, traced passes only
	busy, sched  time.Duration

	rounds, admissions, preemptions, resizes               int
	searches, hits, coalesced, warmHits, warmSeeds, pruned int64

	// Shared preprocessing tier; latencies and the hit rate are
	// averaged over the pass's runs.
	fetches, rejections, failovers int64
	fetchMean, fetchP99, cacheHit  float64

	gets, puts, getHits int
	readB, writeB       int64
	getMs, putMs        []float64
}

// summarize folds a checked pass's fleet runs into its stats.
func summarize(p *passRec) {
	s := &p.stats
	preprocRuns := 0
	for _, fr := range p.runs {
		res := fr.res
		for r := 1; r < len(fr.cb); r++ {
			s.gaps = append(s.gaps, ms(fr.cb[r]-fr.cb[r-1]))
		}
		for _, jr := range res.Jobs {
			done, bad := jobOutcome(jr, fr.cfg.Jobs[jr.Spec].Iters)
			s.iters += done
			s.jobs++
			if bad {
				s.failed++
			} else if !jr.Departed && jr.Result != nil {
				s.mfu = append(s.mfu, jr.Result.MFU)
			}
			s.preemptions += jr.Preemptions
			s.resizes += jr.Resizes
			if jr.Started < 0 {
				continue
			}
			s.admissions++
			// An admission starts when the round before the arrival
			// round hands over (the run's start for round 0) and ends
			// at the callback of the round the job started in.
			var from time.Duration
			if jr.Arrived > 0 {
				from = fr.cb[jr.Arrived-1]
			}
			s.admits = append(s.admits, ms(fr.cb[jr.Started]-from))
		}
		s.rounds += res.Rounds
		s.searches += res.PlanSearches
		s.hits += res.PlanHits
		s.coalesced += res.PlanCoalesced
		s.warmHits += res.PlanWarmHits
		s.warmSeeds += res.PlanWarmSeeds
		s.pruned += res.PlanPruned
		if pp := res.Preprocess; pp != nil {
			preprocRuns++
			s.fetches += pp.Fetches
			s.rejections += pp.Rejections
			s.failovers += pp.Failovers
			s.fetchMean += pp.MeanFetchSeconds * 1e3
			s.fetchP99 += pp.P99FetchSeconds * 1e3
			s.cacheHit += pp.CacheHitRate
		}
		if st := fr.store; st != nil {
			s.gets += st.gets
			s.puts += st.puts
			s.getHits += st.getHits
			s.readB += st.readB
			s.writeB += st.writeB
			s.getMs = append(s.getMs, st.getDur...)
			s.putMs = append(s.putMs, st.putDur...)
		}
		steps := stepSpans(fr)
		for _, sp := range steps {
			s.steps = append(s.steps, ms(sp[1]-sp[0]))
			s.busy += sp[1] - sp[0]
		}
		s.sched += fr.wall - union(steps)
	}
	if preprocRuns > 0 {
		n := float64(preprocRuns)
		s.fetchMean, s.fetchP99, s.cacheHit = s.fetchMean/n, s.fetchP99/n, s.cacheHit/n
	}
	p.runs = nil
}

// perPass maps f over the passes.
func perPass(passes []*passRec, f func(p *passRec) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

// medianOf is the median pass of a per-pass statistic.
func medianOf(passes []*passRec, f func(s *passStats) float64) float64 {
	return median(perPass(passes, func(p *passRec) float64 { return f(&p.stats) }))
}

// pooled concatenates one sample slice from every pass, sorted.
func pooled(passes []*passRec, f func(s *passStats) []float64) []float64 {
	var out []float64
	for _, p := range passes {
		out = append(out, f(&p.stats)...)
	}
	return sorted(out)
}

// endToEnd computes the user-visible metrics: rates and peaks are per
// pass and reported as the median pass; the latency medians pool
// every sample of every pass.
func endToEnd(passes []*passRec, setups []float64) []Metric {
	gaps := pooled(passes, func(s *passStats) []float64 { return s.gaps })
	admits := pooled(passes, func(s *passStats) []float64 { return s.admits })
	return []Metric{
		{Name: "iters_per_s", Unit: "1/s", Value: median(perPass(passes, func(p *passRec) float64 {
			return float64(p.stats.iters) / p.wall.Seconds()
		})), Note: "median of " + itoa(len(passes)) + " passes"},
		{Name: "cpu_ms_per_iter", Unit: "ms", Value: median(perPass(passes, func(p *passRec) float64 {
			return ms(p.cpu) / float64(p.stats.iters)
		}))},
		{Name: "round_ms_p50", Unit: "ms", Value: percentile(gaps, 500), Note: itoa(len(gaps)) + " rounds"},
		{Name: "admit_ms_p50", Unit: "ms", Value: percentile(admits, 500), Note: itoa(len(admits)) + " admissions"},
		{Name: "sim_mfu", Unit: "fraction", Value: medianOf(passes, func(s *passStats) float64 { return mean(s.mfu) })},
		{Name: "setup_s", Unit: "s", Value: median(setups), Note: "median of " + itoa(len(setups)) + " set-ups"},
		{Name: "peak_heap_mb", Unit: "MB", Value: median(perPass(passes, func(p *passRec) float64 {
			return float64(p.heapPeak) / (1 << 20)
		}))},
	}
}

// latencyTails are the round and admission tails. They do not repeat
// across runs within a tenth on this benchmark's workloads, so they
// are reported per layer, not gated end to end.
func latencyTails(passes []*passRec) []Metric {
	gapTail := tail(pooled(passes, func(s *passStats) []float64 { return s.gaps }))
	admitTail := tail(pooled(passes, func(s *passStats) []float64 { return s.admits }))
	return []Metric{
		{Name: "round_ms_tail", Unit: "ms", Value: gapTail.Value, Note: gapTail.note()},
		{Name: "admit_ms_tail", Unit: "ms", Value: admitTail.Value, Note: admitTail.note()},
	}
}

// tally counts attempted and failed operations over passes: every
// tenant is one operation, every shared-tier fetch another. A tenant
// fails when it errors or ends short of its iterations without
// departing; a fetch fails when admission rejects it.
func tally(passes []*passRec) (attempted, failed int64) {
	for _, p := range passes {
		s := &p.stats
		attempted += int64(s.jobs) + s.fetches + s.rejections
		failed += int64(s.failed) + s.rejections
	}
	return attempted, failed
}

// stepSpans returns a fleet run's tenant step spans, sorted by start.
func stepSpans(fr *fleetRun) [][2]time.Duration {
	var out [][2]time.Duration
	for _, pr := range fr.probes {
		out = append(out, pr.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// union is the time covered by spans sorted by start.
func union(spans [][2]time.Duration) time.Duration {
	var covered time.Duration
	var cur [2]time.Duration
	for i, s := range spans {
		switch {
		case i == 0:
			cur = s
		case s[0] <= cur[1]:
			if s[1] > cur[1] {
				cur[1] = s[1]
			}
		default:
			covered += cur[1] - cur[0]
			cur = s
		}
	}
	if len(spans) > 0 {
		covered += cur[1] - cur[0]
	}
	return covered
}

// roundBounds are a run's round span edges as offsets from the
// origin: the run's start, every round callback, the run's end. Round
// span r ends at round r's callback and holds the steps of round r-1
// and the admissions of round r; the last span is the final steps and
// result assembly.
func roundBounds(fr *fleetRun) []time.Duration {
	b := []time.Duration{fr.start}
	for _, c := range fr.cb {
		b = append(b, fr.start+c)
	}
	return append(b, fr.start+fr.wall)
}

// recordSpans files a traced pass's spans under their parents: rounds
// under their fleet run, steps and store calls under the round whose
// interval they start in.
func (h *harness) recordSpans(p *passRec) {
	l := h.spans
	passID := l.add("pass", 0, p.start, p.start+p.wall)
	for _, fr := range p.runs {
		runID := l.add("fleet.run", passID, fr.start, fr.start+fr.wall)
		b := roundBounds(fr)
		ids := make([]int, len(b)-1)
		for i := range ids {
			ids[i] = l.add("round", runID, b[i], b[i+1])
		}
		parent := func(t time.Duration) int {
			i := sort.Search(len(b), func(i int) bool { return b[i] > t }) - 1
			if i < 0 || i >= len(ids) {
				return runID
			}
			return ids[i]
		}
		for _, s := range stepSpans(fr) {
			l.add("trainer.step", parent(s[0]), s[0], s[1])
		}
		if fr.store != nil {
			for _, op := range fr.store.ops {
				l.add(op.name, parent(op.start), op.start, op.end)
			}
		}
	}
	if p.traceWrite > 0 {
		l.add("trace.write", passID, p.traceStart, p.traceStart+p.traceWrite)
	}
}

// perLayer computes the per-layer metrics. plain are the traced run's
// untraced passes, traced its instrumented ones.
func perLayer(plain, traced []*passRec, probes []Metric, shares map[string]float64, sampled time.Duration,
	corpus, calibrate []float64, attempted, failed int64) []Metric {
	var out []Metric
	add := func(name, unit string, v float64) {
		out = append(out, Metric{Name: name, Unit: unit, Value: v})
	}
	med := func(f func(s *passStats) float64) float64 { return medianOf(traced, f) }
	count := func(f func(s *passStats) int64) float64 {
		return med(func(s *passStats) float64 { return float64(f(s)) })
	}

	steps := pooled(traced, func(s *passStats) []float64 { return s.steps })
	stepTail := tail(steps)
	add("trainer.steps", "count", med(func(s *passStats) float64 { return float64(len(s.steps)) }))
	add("trainer.step_ms_p50", "ms", percentile(steps, 500))
	out = append(out, Metric{Name: "trainer.step_ms_tail", Unit: "ms", Value: stepTail.Value, Note: stepTail.note()})
	add("trainer.busy_s", "s", med(func(s *passStats) float64 { return s.busy.Seconds() }))
	add("trainer.alloc_kb_per_iter", "KiB", median(perPass(plain, func(p *passRec) float64 {
		return float64(p.mem1.totalAlloc-p.mem0.totalAlloc) / 1024 / float64(p.stats.iters)
	})))

	out = append(out, probes...)

	var searches, hits float64
	for _, p := range traced {
		searches += float64(p.stats.searches)
		hits += float64(p.stats.hits + p.stats.warmHits)
	}
	add("orchestrator.searches", "count", count(func(s *passStats) int64 { return s.searches }))
	add("orchestrator.hits", "count", count(func(s *passStats) int64 { return s.hits }))
	add("orchestrator.coalesced", "count", count(func(s *passStats) int64 { return s.coalesced }))
	add("orchestrator.warm_hits", "count", count(func(s *passStats) int64 { return s.warmHits }))
	add("orchestrator.warm_seeds", "count", count(func(s *passStats) int64 { return s.warmSeeds }))
	add("orchestrator.pruned", "count", count(func(s *passStats) int64 { return s.pruned }))
	add("orchestrator.hit_ratio", "ratio", ratio(hits, hits+searches))

	for _, pkg := range sharePackages {
		add("cpu_share."+pkg, "ratio", shares[pkg])
	}
	add("cpu_share.base_s", "s", sampled.Seconds())

	var gets, getHits float64
	for _, p := range traced {
		gets += float64(p.stats.gets)
		getHits += float64(p.stats.getHits)
	}
	add("store.gets", "count", med(func(s *passStats) float64 { return float64(s.gets) }))
	add("store.puts", "count", med(func(s *passStats) float64 { return float64(s.puts) }))
	add("store.get_ms_p50", "ms", percentile(pooled(traced, func(s *passStats) []float64 { return s.getMs }), 500))
	add("store.put_ms_p50", "ms", percentile(pooled(traced, func(s *passStats) []float64 { return s.putMs }), 500))
	add("store.read_kb", "KiB", med(func(s *passStats) float64 { return float64(s.readB) / 1024 }))
	add("store.written_kb", "KiB", med(func(s *passStats) float64 { return float64(s.writeB) / 1024 }))
	add("store.hit_ratio", "ratio", ratio(getHits, gets))

	add("fleet.rounds", "count", med(func(s *passStats) float64 { return float64(s.rounds) }))
	add("fleet.admissions", "count", med(func(s *passStats) float64 { return float64(s.admissions) }))
	add("fleet.preemptions", "count", med(func(s *passStats) float64 { return float64(s.preemptions) }))
	add("fleet.resizes", "count", med(func(s *passStats) float64 { return float64(s.resizes) }))
	var sched time.Duration
	rounds := 0
	for _, p := range traced {
		sched += p.stats.sched
		rounds += p.stats.rounds
	}
	add("fleet.sched_ms_per_round", "ms", ms(sched)/float64(max(rounds, 1)))

	add("preprocess.fetches", "count", count(func(s *passStats) int64 { return s.fetches }))
	add("preprocess.fetch_ms_mean", "ms", med(func(s *passStats) float64 { return s.fetchMean }))
	add("preprocess.fetch_ms_p99", "ms", med(func(s *passStats) float64 { return s.fetchP99 }))
	add("preprocess.failovers", "count", count(func(s *passStats) int64 { return s.failovers }))
	add("preprocess.rejections", "count", count(func(s *passStats) int64 { return s.rejections }))
	add("preprocess.cache_hit_ratio", "ratio", med(func(s *passStats) float64 { return s.cacheHit }))

	add("trace.events", "count", median(perPass(traced, func(p *passRec) float64 { return float64(p.traceEvents) })))
	add("trace.mb", "MB", median(perPass(traced, func(p *passRec) float64 { return float64(p.traceBytes) / (1 << 20) })))
	add("trace.write_ms", "ms", median(perPass(traced, func(p *passRec) float64 { return ms(p.traceWrite) })))

	add("setup.calibrate_s", "s", median(calibrate))
	add("setup.corpus_s", "s", median(corpus))

	add("gc.cycles", "count", median(perPass(plain, func(p *passRec) float64 { return float64(p.mem1.numGC - p.mem0.numGC) })))
	add("gc.pause_ms", "ms", median(perPass(plain, func(p *passRec) float64 { return float64(p.mem1.pauseNs-p.mem0.pauseNs) / 1e6 })))

	out = append(out, latencyTails(plain)...)

	perIter := func(p *passRec) float64 { return p.wall.Seconds() / float64(p.stats.iters) }
	add("bench.trace_overhead", "ratio", median(perPass(traced, perIter))/median(perPass(plain, perIter))-1)
	out = append(out, Metric{Name: "failed_frac", Unit: "ratio", Value: ratio(float64(failed), float64(attempted)),
		Note: itoa(int(failed)) + " of " + itoa(int(attempted)) + " operations"})
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func itoa(n int) string { return strconv.Itoa(n) }
