package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: disttrain
BenchmarkPlanSearch/sequential-8         	       1	 123456789 ns/op
BenchmarkFleetThroughput/jobs=4-8        	       1	   9100509 ns/op	       879.1 iters/s	  120000 B/op	    3500 allocs/op
BenchmarkVPPAblation/vpp=2-8             	       1	      2200 ns/op	        14.5 bubble%
| table row | that is not a benchmark |
BenchmarkBroken-8                        	     nan	 123 ns/op
PASS
ok  	disttrain	1.234s
`
	report, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(report.Benchmarks), report.Benchmarks)
	}
	b := report.Benchmarks[1]
	if b.Name != "BenchmarkFleetThroughput/jobs=4-8" || b.NsPerOp != 9100509 || b.Iterations != 1 {
		t.Errorf("benchmark 1 = %+v", b)
	}
	if got := b.Metrics["iters/s"]; got != 879.1 {
		t.Errorf("iters/s metric = %g", got)
	}
	if got := b.Metrics["allocs/op"]; got != 3500 {
		t.Errorf("allocs/op metric = %g", got)
	}
	if got := b.Metrics["B/op"]; got != 120000 {
		t.Errorf("B/op metric = %g", got)
	}
	if got := report.Benchmarks[2].Metrics["bubble%"]; got != 14.5 {
		t.Errorf("bubble%% metric = %g", got)
	}
}

// TestParseMergesRepeatedRuns: -count=N produces repeated names; the
// report keeps one entry per name — the fastest wall-clock sample for
// plain benchmarks, the median gated rate (norm-iters/s preferred
// over cpu-iters/s) when the samples report a throughput metric, even
// if that sample was not the fastest by wall clock.
func TestParseMergesRepeatedRuns(t *testing.T) {
	out := `BenchmarkFleetThroughput/jobs=1-8 	 1 	 4000000 ns/op 	 500.0 iters/s
BenchmarkFleetThroughput/jobs=1-8 	 1 	 3800000 ns/op 	 526.0 iters/s
BenchmarkFleetThroughput/jobs=1-8 	 1 	 6000000 ns/op 	 333.0 iters/s
BenchmarkOther-8 	 1 	 100 ns/op
`
	report, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2 merged: %+v", len(report.Benchmarks), report.Benchmarks)
	}
	best := report.Benchmarks[0]
	if best.NsPerOp != 3800000 || best.Metrics["iters/s"] != 526.0 {
		t.Errorf("kept sample %+v, want the fastest (3800000 ns/op, 526 iters/s)", best)
	}
}

// TestParseMergesByGatedRate: when repeated samples report the gated
// throughput metrics the collapse keeps the median rate, not the
// fastest wall clock — the spin-normalized per-sample jitter is
// roughly symmetric, so the median is the stable representative while
// either extreme wobbles run to run. The kept entry is one whole
// sample: its allocs/op belongs to the same run as its rate.
func TestParseMergesByGatedRate(t *testing.T) {
	out := `BenchmarkFleetThroughput/jobs=16-8 	 40 	 3000000 ns/op 	 5000.0 cpu-iters/s 	 9000.0 norm-iters/s 	 6313 allocs/op
BenchmarkFleetThroughput/jobs=16-8 	 40 	 2900000 ns/op 	 5200.0 cpu-iters/s 	 8700.0 norm-iters/s 	 6313 allocs/op
BenchmarkFleetThroughput/jobs=16-8 	 40 	 3100000 ns/op 	 4800.0 cpu-iters/s 	 9400.0 norm-iters/s 	 6313 allocs/op
BenchmarkRawOnly-8 	 40 	 2000000 ns/op 	 700.0 cpu-iters/s
BenchmarkRawOnly-8 	 40 	 1900000 ns/op 	 650.0 cpu-iters/s
`
	report, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2 merged: %+v", len(report.Benchmarks), report.Benchmarks)
	}
	fleet := report.Benchmarks[0]
	if fleet.Metrics[normUnit] != 9000.0 || fleet.NsPerOp != 3000000 {
		t.Errorf("kept sample %+v, want median norm-iters/s (9000, not fastest wall clock)", fleet)
	}
	raw := report.Benchmarks[1]
	if raw.Metrics[throughputUnit] != 700.0 {
		t.Errorf("kept sample %+v, want upper-median cpu-iters/s (700) absent norm-iters/s", raw)
	}
}

// TestParseDropsSmokeSample: the 1x smoke sample of a benchmark that
// also has timed samples never becomes the recorded entry, even when
// its rate would be the median of all six — its allocs/op include
// warm-up allocations and would loosen the one-sided tripwire.
func TestParseDropsSmokeSample(t *testing.T) {
	out := `BenchmarkColdAdmissionStorm/inline 	 1 	 33386449 ns/op 	 6756432 B/op 	 26689 allocs/op 	 60.00 band% 	 955.4 cpu-iters/s 	 958.5 iters/s 	 2478 norm-iters/s
BenchmarkColdAdmissionStorm/inline 	 20 	 31500000 ns/op 	 4400000 B/op 	 23918 allocs/op 	 60.00 band% 	 1010 cpu-iters/s 	 1014 iters/s 	 2300 norm-iters/s
BenchmarkColdAdmissionStorm/inline 	 20 	 31400000 ns/op 	 4400000 B/op 	 23920 allocs/op 	 60.00 band% 	 1015 cpu-iters/s 	 1019 iters/s 	 2390 norm-iters/s
BenchmarkColdAdmissionStorm/inline 	 20 	 31300000 ns/op 	 4400000 B/op 	 23921 allocs/op 	 60.00 band% 	 1020 cpu-iters/s 	 1024 iters/s 	 2450 norm-iters/s
BenchmarkColdAdmissionStorm/inline 	 20 	 31200000 ns/op 	 4400000 B/op 	 23919 allocs/op 	 60.00 band% 	 1025 cpu-iters/s 	 1029 iters/s 	 2600 norm-iters/s
BenchmarkColdAdmissionStorm/inline 	 20 	 31100000 ns/op 	 4400000 B/op 	 23920 allocs/op 	 60.00 band% 	 1030 cpu-iters/s 	 1034 iters/s 	 2650 norm-iters/s
BenchmarkPlanSearch 	 1 	 5000000 ns/op 	 100 allocs/op
`
	report, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(report.Benchmarks), report.Benchmarks)
	}
	storm := report.Benchmarks[0]
	if storm.Iterations != 20 || storm.Metrics[normUnit] != 2450 || storm.Metrics[allocUnit] != 23921 {
		t.Errorf("kept sample %+v, want the median 20x sample (2450 norm-iters/s, 23921 allocs/op)", storm)
	}
	if smoke := report.Benchmarks[1]; smoke.Iterations != 1 || smoke.Metrics[allocUnit] != 100 {
		t.Errorf("smoke-only benchmark %+v, want its single 1x sample kept", smoke)
	}
}

// TestDiffBand pins the throughput gate: within ±band passes, outside
// fails, a baseline benchmark missing from the run fails, and extra
// benchmarks in the new run are ignored.
func TestDiffBand(t *testing.T) {
	bench := func(name string, rate float64) Benchmark {
		return Benchmark{Name: name, Iterations: 1, NsPerOp: 1, Metrics: map[string]float64{throughputUnit: rate}}
	}
	base := &Report{Benchmarks: []Benchmark{
		bench("BenchmarkFleetThroughput/jobs=1-8", 400),
		bench("BenchmarkFleetThroughput/jobs=4-8", 900),
		{Name: "BenchmarkPlanSearch-8", Iterations: 1, NsPerOp: 5e8}, // no iters/s: not compared
	}}

	for name, tc := range map[string]struct {
		cur  *Report
		band float64
		ok   bool
	}{
		"within band": {
			cur: &Report{Benchmarks: []Benchmark{
				bench("BenchmarkFleetThroughput/jobs=1-8", 420),
				bench("BenchmarkFleetThroughput/jobs=4-8", 850),
			}},
			band: 10, ok: true,
		},
		"regression outside band": {
			cur: &Report{Benchmarks: []Benchmark{
				bench("BenchmarkFleetThroughput/jobs=1-8", 300),
				bench("BenchmarkFleetThroughput/jobs=4-8", 900),
			}},
			band: 10, ok: false,
		},
		"suspicious speedup outside band": {
			cur: &Report{Benchmarks: []Benchmark{
				bench("BenchmarkFleetThroughput/jobs=1-8", 400),
				bench("BenchmarkFleetThroughput/jobs=4-8", 1200),
			}},
			band: 10, ok: false,
		},
		"baseline benchmark missing from run": {
			cur: &Report{Benchmarks: []Benchmark{
				bench("BenchmarkFleetThroughput/jobs=1-8", 400),
			}},
			band: 10, ok: false,
		},
		"extra new benchmark ignored": {
			cur: &Report{Benchmarks: []Benchmark{
				bench("BenchmarkFleetThroughput/jobs=1-8", 400),
				bench("BenchmarkFleetThroughput/jobs=4-8", 900),
				bench("BenchmarkFleetThroughput/jobs=64-8", 1),
			}},
			band: 10, ok: true,
		},
		"wider band tolerates more": {
			cur: &Report{Benchmarks: []Benchmark{
				bench("BenchmarkFleetThroughput/jobs=1-8", 300),
				bench("BenchmarkFleetThroughput/jobs=4-8", 900),
			}},
			band: 30, ok: true,
		},
	} {
		t.Run(name, func(t *testing.T) {
			var buf strings.Builder
			err := diff(&buf, base, tc.cur, tc.band, 10)
			if tc.ok && err != nil {
				t.Fatalf("diff failed: %v\n%s", err, buf.String())
			}
			if !tc.ok && err == nil {
				t.Fatalf("diff passed, want failure\n%s", buf.String())
			}
		})
	}

	// A baseline with no throughput benchmarks at all is a config
	// error, not a pass.
	empty := &Report{Benchmarks: []Benchmark{{Name: "BenchmarkX-8", Iterations: 1, NsPerOp: 1}}}
	var buf strings.Builder
	if err := diff(&buf, empty, empty, 10, 10); err == nil {
		t.Fatal("empty baseline passed the gate")
	}
}

// TestDiffNamesProcSuffix: a run at N > 1 procs reports every
// benchmark as "<name>-N", which matches no baseline name recorded at
// one proc. The gate still fails, but names the suffixed entry and the
// -cpu fix instead of a bare "missing".
func TestDiffNamesProcSuffix(t *testing.T) {
	bench := func(name string) Benchmark {
		return Benchmark{Name: name, Iterations: 1, NsPerOp: 1, Metrics: map[string]float64{throughputUnit: 400}}
	}
	base := &Report{Benchmarks: []Benchmark{bench("BenchmarkFleetThroughput/jobs=1"), bench("BenchmarkServiceThroughput/tenants=4")}}
	cur := &Report{Benchmarks: []Benchmark{
		bench("BenchmarkFleetThroughput/jobs=1-2"),
		bench("BenchmarkServiceThroughput/tenants=4x"), // not a proc suffix
	}}
	var buf strings.Builder
	if err := diff(&buf, base, cur, 10, 10); err == nil {
		t.Fatalf("diff passed with every baseline name missing\n%s", buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "FAIL BenchmarkFleetThroughput/jobs=1: in baseline but missing from this run; found BenchmarkFleetThroughput/jobs=1-2 instead") ||
		!strings.Contains(out, "-cpu=1") {
		t.Errorf("diff output does not name the proc-suffixed entry:\n%s", out)
	}
	if !strings.Contains(out, "FAIL BenchmarkServiceThroughput/tenants=4: in baseline but missing from this run\n") {
		t.Errorf("a non-numeric suffix was taken for a proc count:\n%s", out)
	}
}

// TestDiffSelfDeclaredBand: a baseline sample that recorded a band%
// metric (the benchmark called b.ReportMetric(60, "band%")) is gated
// at that band when it is wider than the CLI's, and at the CLI's when
// it is not — self-declared bands can only relax the gate, never
// tighten it.
func TestDiffSelfDeclaredBand(t *testing.T) {
	bench := func(rate, selfBand float64) Benchmark {
		m := map[string]float64{throughputUnit: rate}
		if selfBand > 0 {
			m[bandUnit] = selfBand
		}
		return Benchmark{Name: "BenchmarkWarmPlanSearch/warm", Iterations: 1, NsPerOp: 1, Metrics: m}
	}
	wide := &Report{Benchmarks: []Benchmark{bench(1000, 60)}}

	// -50% is outside the CLI's ±10% but inside the declared ±60%.
	var buf strings.Builder
	if err := diff(&buf, wide, &Report{Benchmarks: []Benchmark{bench(500, 60)}}, 10, 10); err != nil {
		t.Fatalf("drop inside declared band failed: %v\n%s", err, buf.String())
	}
	// A wholesale collapse still fails.
	buf.Reset()
	if err := diff(&buf, wide, &Report{Benchmarks: []Benchmark{bench(300, 60)}}, 10, 10); err == nil {
		t.Fatalf("collapse outside declared band passed\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "band ±60%") {
		t.Errorf("failure did not report the declared band:\n%s", buf.String())
	}
	// A declared band narrower than the CLI's does not tighten the gate.
	narrow := &Report{Benchmarks: []Benchmark{bench(1000, 2)}}
	buf.Reset()
	if err := diff(&buf, narrow, &Report{Benchmarks: []Benchmark{bench(920, 2)}}, 10, 10); err != nil {
		t.Fatalf("-8%% failed under a self-declared 2%% band; declared bands must not tighten the CLI band: %v\n%s", err, buf.String())
	}
}

// TestDiffPrefersNormalizedUnit: when the baseline records the
// calibration-normalized rate, the gate compares it and ignores raw
// cpu-iters/s drift (a throttled runner moves cpu-iters/s uniformly;
// the normalized rate cancels machine speed).
func TestDiffPrefersNormalizedUnit(t *testing.T) {
	bench := func(cpu, norm float64) Benchmark {
		return Benchmark{Name: "BenchmarkFleetThroughput/jobs=16-8", Iterations: 1, NsPerOp: 1,
			Metrics: map[string]float64{throughputUnit: cpu, normUnit: norm}}
	}
	base := &Report{Benchmarks: []Benchmark{bench(1000, 700)}}

	// Raw rate 40% down (thermal drift) but normalized stable: passes.
	var buf strings.Builder
	if err := diff(&buf, base, &Report{Benchmarks: []Benchmark{bench(600, 690)}}, 10, 10); err != nil {
		t.Fatalf("normalized-stable run failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), normUnit) {
		t.Errorf("diff did not compare %s:\n%s", normUnit, buf.String())
	}
	// Raw rate identical but normalized regressed: fails.
	buf.Reset()
	if err := diff(&buf, base, &Report{Benchmarks: []Benchmark{bench(1000, 500)}}, 10, 10); err == nil {
		t.Fatalf("normalized regression passed\n%s", buf.String())
	}
}

// TestDiffAllocGate pins the one-sided allocation gate: allocating
// more than band percent over the baseline fails, allocating less (or
// slightly more) passes, and a run missing allocs/op for a baseline
// that records it fails with a -benchmem hint.
func TestDiffAllocGate(t *testing.T) {
	bench := func(name string, rate, allocs float64) Benchmark {
		return Benchmark{Name: name, Iterations: 1, NsPerOp: 1, Metrics: map[string]float64{
			throughputUnit: rate, allocUnit: allocs,
		}}
	}
	base := &Report{Benchmarks: []Benchmark{
		bench("BenchmarkFleetThroughput/jobs=16-8", 1000, 8000),
	}}

	for name, tc := range map[string]struct {
		cur  *Report
		ok   bool
		want string // substring the diff output must contain
	}{
		"fewer allocations pass": {
			cur: &Report{Benchmarks: []Benchmark{bench("BenchmarkFleetThroughput/jobs=16-8", 1000, 4000)}},
			ok:  true, want: "4000 allocs/op",
		},
		"small growth inside band passes": {
			cur: &Report{Benchmarks: []Benchmark{bench("BenchmarkFleetThroughput/jobs=16-8", 1000, 8400)}},
			ok:  true, want: "+5.0%",
		},
		"regression over band fails": {
			cur: &Report{Benchmarks: []Benchmark{bench("BenchmarkFleetThroughput/jobs=16-8", 1000, 9000)}},
			ok:  false, want: "regression limit",
		},
		"missing allocs metric fails": {
			cur: &Report{Benchmarks: []Benchmark{{
				Name: "BenchmarkFleetThroughput/jobs=16-8", Iterations: 1, NsPerOp: 1,
				Metrics: map[string]float64{throughputUnit: 1000},
			}}},
			ok: false, want: "-benchmem",
		},
	} {
		t.Run(name, func(t *testing.T) {
			var buf strings.Builder
			err := diff(&buf, base, tc.cur, 25, 10)
			if tc.ok && err != nil {
				t.Fatalf("diff failed: %v\n%s", err, buf.String())
			}
			if !tc.ok && err == nil {
				t.Fatalf("diff passed, want failure\n%s", buf.String())
			}
			if !strings.Contains(buf.String(), tc.want) {
				t.Errorf("diff output missing %q:\n%s", tc.want, buf.String())
			}
		})
	}
}

// TestDiffRoundTrip runs the gate against a baseline file on disk the
// way `make bench-diff` does: write a report, re-load it, diff parsed
// bench output against it.
func TestDiffRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	base := &Report{Benchmarks: []Benchmark{{
		Name: "BenchmarkFleetThroughput/jobs=1-8", Iterations: 1, NsPerOp: 2e6,
		Metrics: map[string]float64{throughputUnit: 500},
	}}}
	if err := writeAtomic(path, base); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parse(strings.NewReader(
		"BenchmarkFleetThroughput/jobs=1-8 \t 1 \t 1900000 ns/op \t 520.0 cpu-iters/s\n"))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := diff(&buf, loaded, cur, 10, 10); err != nil {
		t.Fatalf("round-trip diff failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "+4.0%") {
		t.Errorf("diff output missing delta: %q", buf.String())
	}
	if _, err := loadReport(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing baseline file accepted")
	}
}

func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	report := &Report{Benchmarks: []Benchmark{{Name: "B", Iterations: 1, NsPerOp: 42}}}
	if err := writeAtomic(path, report); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Benchmarks) != 1 || back.Benchmarks[0].NsPerOp != 42 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if err := writeAtomic(filepath.Join(dir, "missing", "x.json"), report); err == nil {
		t.Fatal("write into missing directory accepted")
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}
