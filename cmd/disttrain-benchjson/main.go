// Command disttrain-benchjson converts `go test -bench` output on
// stdin into machine-readable JSON, so every PR can record a
// performance baseline (`make bench-json` writes BENCH_fleet.json)
// and future changes can diff ns/op per benchmark instead of
// eyeballing logs.
//
//	go test -bench=. -benchtime=1x -run='^$' ./... | disttrain-benchjson -o BENCH_fleet.json
//
// With -diff, the tool compares the run on stdin against a committed
// baseline instead of writing one: every baseline benchmark reporting
// a fleet throughput metric (norm-iters/s when recorded, else
// cpu-iters/s) must be present and within ±band percent of its
// recorded rate, and its baseline allocs/op figure must not regress
// by more than alloc-band percent, or the exit status is 1
// (`make bench-diff`). The two bands differ on purpose: throughput on
// a virtualized single-core runner keeps ±10-15% of irreducible noise
// even after spin normalization and median-of-N sampling, so its band
// is coarse, while allocation counts are deterministic to the single
// alloc and get the tight band — allocs/op is the tripwire that
// actually catches a hot-loop regression, the rate band catches only
// wholesale collapses. A benchmark whose rate is noisier still (e.g.
// syscall-bound) can widen its own band by reporting a `band%` metric;
// see bandUnit.
//
//	go test -bench=BenchmarkFleetThroughput -benchtime=1x -run='^$' . | \
//	    disttrain-benchjson -diff BENCH_fleet.json -band 25 -alloc-band 10
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"disttrain/internal/metrics"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Metrics carries every extra `<value> <unit>` pair the benchmark
	// reported (b.ReportMetric, -benchmem): bubble%, iters/s, B/op...
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the output document.
type Report struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout); written atomically via temp file + rename")
	baseline := flag.String("diff", "", "baseline report (e.g. BENCH_fleet.json) to compare against instead of writing")
	band := flag.Float64("band", 25, "with -diff: allowed throughput deviation in percent")
	allocBand := flag.Float64("alloc-band", 10, "with -diff: allowed allocs/op growth in percent (one-sided)")
	flag.Parse()

	report, err := parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if *baseline != "" {
		base, err := loadReport(*baseline)
		if err != nil {
			fatal(err)
		}
		if err := diff(os.Stdout, base, report, *band, *allocBand); err != nil {
			fatal(err)
		}
		return
	}
	if *out == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
		return
	}
	if err := writeAtomic(*out, report); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(report.Benchmarks))
}

// parse extracts benchmark result lines: `BenchmarkName-P  N  V ns/op
// [V unit]...`. Non-benchmark lines (experiment tables, PASS/ok) are
// skipped. Repeated names (-count=N) collapse to one representative
// sample: the median gated rate (norm-iters/s, else cpu-iters/s) for
// benchmarks reporting a throughput metric, the fastest wall clock
// otherwise. A single -benchtime=1x run of the fleet loop swings tens
// of percent with GC timing and scheduler preemption; the per-sample
// jitter left after spin normalization is roughly symmetric, so the
// median of N samples is stable to a few percent where both the
// fastest-wall-clock sample and the peak rate wobbled run to run by
// more than the regression band.
func parse(r io.Reader) (*Report, error) {
	report := &Report{Benchmarks: []Benchmark{}}
	seen := map[string][]Benchmark{}
	order := []string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: fields[0], Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			if unit := fields[i+1]; unit == "ns/op" {
				b.NsPerOp = v
			} else {
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		if b.NsPerOp <= 0 {
			continue
		}
		if _, ok := seen[b.Name]; !ok {
			order = append(order, b.Name)
		}
		seen[b.Name] = append(seen[b.Name], b)
	}
	for _, name := range order {
		report.Benchmarks = append(report.Benchmarks, collapse(seen[name]))
	}
	return report, sc.Err()
}

// collapse reduces repeated samples of one benchmark to the
// representative the diff gate compares: the sample with the median
// gated rate when the samples report one, else the fastest by wall
// clock. The whole sample is kept (its allocs/op rides along with its
// rate) rather than mixing metrics across samples. The bench-json
// smoke pass runs every benchmark once (Iterations 1); when the same
// name also has timed samples, the smoke sample is dropped, because
// its allocs/op carry warm-up allocations the timed samples amortise.
func collapse(samples []Benchmark) Benchmark {
	timed := samples[:0:0]
	for _, b := range samples {
		if b.Iterations > 1 {
			timed = append(timed, b)
		}
	}
	if len(timed) > 0 {
		samples = timed
	}
	for _, unit := range []string{normUnit, throughputUnit} {
		rated := samples[:0:0]
		for _, b := range samples {
			if _, ok := b.Metrics[unit]; ok {
				rated = append(rated, b)
			}
		}
		if len(rated) == 0 {
			continue
		}
		sort.SliceStable(rated, func(i, j int) bool {
			return rated[i].Metrics[unit] < rated[j].Metrics[unit]
		})
		return rated[len(rated)/2]
	}
	best := samples[0]
	for _, b := range samples[1:] {
		if b.NsPerOp < best.NsPerOp {
			best = b
		}
	}
	return best
}

// throughputUnit is the fleet throughput metric the diff gate
// compares: training iterations per CPU second. Wall-clock rates
// (iters/s, ns/op) charge the benchmark for whatever else the machine
// is running; CPU time tracks the work the fleet loop actually did,
// so the ±band gate holds across differently-loaded runs.
const throughputUnit = "cpu-iters/s"

// normUnit is the calibration-normalized throughput (cpu-iters/s
// scaled by the benchmark's in-process spin rate against a pinned
// nominal). CPU time is still frequency-dependent — a throttled
// runner reports uniformly lower cpu-iters/s for identical work — so
// when the baseline records norm-iters/s the gate compares it
// instead, and cpu-iters/s stays informational.
const normUnit = "norm-iters/s"

// bandUnit lets a benchmark widen its own rate band: a sample
// reporting `b.ReportMetric(60, "band%")` records that value in the
// baseline, and the diff gate uses it instead of the CLI -band when
// it is larger. Widening only — a benchmark can declare its rate
// noisier than the fleet default (the warm plan lookup is
// syscall-bound, so spin normalization cannot cancel its jitter the
// way it does for CPU-bound sweeps), but never tighter than the gate
// the CLI asked for. For such benchmarks the rate stays a
// wholesale-collapse detector and allocs/op is the real tripwire.
const bandUnit = "band%"

// allocUnit is the allocation metric the diff gate also checks, on
// the benchmarks that report the throughput metric (the fleet sweep —
// the baseline records allocs/op for every -benchmem benchmark, but
// bench-diff only reruns the fleet loop). Allocation counts are
// near-deterministic, so the gate is one-sided: allocating more than
// band percent over the baseline fails, allocating less only reports
// — an improvement is re-recorded with `make bench-json`, not flagged
// as suspicious the way a throughput jump is.
const allocUnit = "allocs/op"

func loadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// diff compares every baseline benchmark that reports the throughput
// metric against the new run, gating both the rate and (when the
// baseline records it) the allocation count. A missing benchmark, a
// rate outside ±band percent of the baseline, or an allocs/op count
// more than allocBand percent over the baseline fails the gate;
// benchmarks the baseline never recorded are ignored (a new benchmark
// cannot regress a committed number).
func diff(w io.Writer, base, cur *Report, band, allocBand float64) error {
	byName := map[string]Benchmark{}
	for _, b := range cur.Benchmarks {
		byName[b.Name] = b
	}
	rateCompared, allocCompared, failed := 0, 0, 0
	for _, b := range base.Benchmarks {
		// Prefer the machine-speed-invariant normalized rate when the
		// baseline recorded one; old baselines gate on raw cpu-iters/s.
		unit := throughputUnit
		wantRate, hasRate := b.Metrics[throughputUnit]
		if v, ok := b.Metrics[normUnit]; ok {
			unit, wantRate, hasRate = normUnit, v, true
		}
		if !hasRate {
			continue
		}
		benchBand := band
		if v, ok := b.Metrics[bandUnit]; ok && v > benchBand {
			benchBand = v
		}
		wantAllocs, hasAllocs := b.Metrics[allocUnit]
		got, present := byName[b.Name]
		if !present {
			failed++
			rateCompared++
			if hasAllocs {
				allocCompared++
			}
			if alt, ok := procSuffixed(byName, b.Name); ok {
				fmt.Fprintf(w, "FAIL %s: in baseline but missing from this run; found %s instead (go test suffixes -N when run at N procs: rerun with -cpu=1, as the baseline was recorded)\n",
					b.Name, alt)
			} else {
				fmt.Fprintf(w, "FAIL %s: in baseline but missing from this run\n", b.Name)
			}
			continue
		}
		rateCompared++
		if gotRate, ok := got.Metrics[unit]; !ok {
			failed++
			fmt.Fprintf(w, "FAIL %s: baseline records %s but this run reports none\n",
				b.Name, unit)
		} else if delta := 100 * (gotRate - wantRate) / wantRate; delta < -benchBand || delta > benchBand {
			failed++
			fmt.Fprintf(w, "FAIL %s: %.1f %s vs baseline %.1f (%+.1f%%, band ±%.0f%%)\n",
				b.Name, gotRate, unit, wantRate, delta, benchBand)
		} else {
			fmt.Fprintf(w, "ok   %s: %.1f %s vs baseline %.1f (%+.1f%%)\n",
				b.Name, gotRate, unit, wantRate, delta)
		}
		if hasAllocs {
			allocCompared++
			gotAllocs, ok := got.Metrics[allocUnit]
			switch {
			case !ok:
				failed++
				fmt.Fprintf(w, "FAIL %s: baseline records %s but this run reports none (run with -benchmem)\n",
					b.Name, allocUnit)
			case allocRegressed(gotAllocs, wantAllocs, allocBand):
				failed++
				fmt.Fprintf(w, "FAIL %s: %.0f %s vs baseline %.0f (%+.1f%%, regression limit +%.0f%%)\n",
					b.Name, gotAllocs, allocUnit, wantAllocs, allocDelta(gotAllocs, wantAllocs), allocBand)
			default:
				fmt.Fprintf(w, "ok   %s: %.0f %s vs baseline %.0f (%+.1f%%)\n",
					b.Name, gotAllocs, allocUnit, wantAllocs, allocDelta(gotAllocs, wantAllocs))
			}
		}
	}
	if rateCompared == 0 {
		return fmt.Errorf("baseline reports no %q benchmarks to compare", throughputUnit)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d comparisons outside the bands (rate ±%.0f%%, allocs +%.0f%%)",
			failed, rateCompared+allocCompared, band, allocBand)
	}
	fmt.Fprintf(w, "throughput within ±%.0f%% and allocs within +%.0f%% of baseline (%d benchmarks, %d alloc counts)\n",
		band, allocBand, rateCompared, allocCompared)
	return nil
}

// procSuffixed looks for name recorded at another proc count: go test
// appends "-N" to every benchmark name when it runs at N > 1 procs, so
// a run at the wrong -cpu misses every baseline entry by name alone.
func procSuffixed(byName map[string]Benchmark, name string) (string, bool) {
	var found []string
	for n := range byName {
		if suffix, ok := strings.CutPrefix(n, name+"-"); ok {
			if _, err := strconv.Atoi(suffix); err == nil {
				found = append(found, n)
			}
		}
	}
	if len(found) == 0 {
		return "", false
	}
	sort.Strings(found)
	return found[0], true
}

// allocRegressed reports whether got allocations exceed the baseline
// by more than band percent. A zero baseline tolerates zero.
func allocRegressed(got, want, band float64) bool {
	if want == 0 {
		return got > 0
	}
	return allocDelta(got, want) > band
}

// allocDelta is the percent change of got over a nonzero baseline.
func allocDelta(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return 100 * (got - want) / want
}

// writeAtomic lands the report through the shared temp-file+rename
// helper the trace writers use, so a failure mid-encode never leaves
// a truncated baseline.
func writeAtomic(path string, report *Report) error {
	return metrics.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "disttrain-benchjson:", err)
	os.Exit(1)
}
