package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailTakesHighestLevelWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		label  string
		value  float64
		beyond int
	}{
		{n: 99, label: "p90", value: 90, beyond: 9}, // no level has ten beyond: p90, flagged thin
		{n: 100, label: "p90", value: 90, beyond: 10},
		{n: 999, label: "p90", value: 900, beyond: 99},
		{n: 1000, label: "p99", value: 990, beyond: 10},
		{n: 9999, label: "p99", value: 9900, beyond: 99},
		{n: 10000, label: "p99.9", value: 9990, beyond: 10},
	} {
		got := tail(seq(tc.n))
		if got.Label != tc.label || got.Value != tc.value || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("tail of %d samples = %+v, want %s=%v with %d beyond", tc.n, got, tc.label, tc.value, tc.beyond)
		}
	}
	if got := percentile(nil, 500); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestCheckMetricsEnforcesNamesAndUnits(t *testing.T) {
	ok := []Metric{
		{Name: "iters_per_s", Unit: "1/s", Value: 1},
		{Name: "cpu_share.model", Unit: "ratio", Value: 0.4},
		{Name: "store.get_ms_p50", Unit: "ms", Value: 0},
		{Name: "9lives-x", Unit: "%", Value: 2},
	}
	if err := checkMetrics(ok); err != nil {
		t.Fatalf("valid metrics rejected: %v", err)
	}
	for _, bad := range [][]Metric{
		{{Name: "round ms", Unit: "ms"}},
		{{Name: "_leading", Unit: "ms"}},
		{{Name: "résumé", Unit: "ms"}},
		{{Name: "a/b", Unit: "ms"}},
		{{Name: strings.Repeat("x", 65), Unit: "ms"}},
		{{Name: "no_unit", Unit: ""}},
		{{Name: "long_unit", Unit: strings.Repeat("s", 17)}},
		{{Name: "spaced_unit", Unit: "m s"}},
		{{Name: "twice", Unit: "ms"}, {Name: "twice", Unit: "ms"}},
	} {
		if err := checkMetrics(bad); err == nil {
			t.Errorf("checkMetrics(%+v) accepted an invalid set", bad)
		}
	}
}

func TestParseTracesSharesByPackage(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   disttrain/internal/model.MLLM.ModuleFwdFLOPs
             disttrain/internal/trainer.(*Runtime).runRank
             disttrain/internal/model.MLLM.ModuleTrainFLOPs (inline)
-----------+-------------------------------------------------------
      10ms   runtime.memmove
             disttrain/internal/pipeline.Simulate
-----------+-------------------------------------------------------
`)
	shares, total, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if total != 40*time.Millisecond {
		t.Fatalf("total %v, want 40ms", total)
	}
	if shares["model"] != 0.75 || shares["pipeline"] != 0.25 || shares["reorder"] != 0 {
		t.Fatalf("shares %v, want model 0.75 (counted once per stack), pipeline 0.25", shares)
	}
}

// smallHarness is a harness over a temporary directory for fixtures
// scaled down to test size.
func smallHarness(t *testing.T) *harness {
	return &harness{origin: time.Now(), dir: t.TempDir(), procs: 2, seed: 7, cur: &passRec{}}
}

func runPass(t *testing.T, h *harness, fx fixture) *passRec {
	t.Helper()
	h.cur = &passRec{}
	if err := fx.pass(h); err != nil {
		t.Fatal(err)
	}
	return h.cur
}

func TestSteadyOracleCatchesCorruptedReference(t *testing.T) {
	for _, traced := range []bool{false, true} {
		h := smallHarness(t)
		s, err := newSteady(h, &setupTimes{}, 4, 3, traced)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.prepare(h); err != nil {
			t.Fatal(err)
		}
		p := runPass(t, h, s)
		if err := s.check(h, p); err != nil {
			t.Fatalf("trace=%v: clean pass failed its check: %v", traced, err)
		}
		bad := *s.ref[2]
		bad.MFU *= 1.001
		s.ref[2] = &bad
		if err := s.check(h, p); err == nil {
			t.Fatalf("trace=%v: a corrupted reference result passed the check", traced)
		}
	}
}

func TestTraceExportOracleCatchesCorruptedFile(t *testing.T) {
	h := smallHarness(t)
	s, err := newSteady(h, &setupTimes{}, 2, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.prepare(h); err != nil {
		t.Fatal(err)
	}
	p := runPass(t, h, s)
	if err := s.check(h, p); err != nil {
		t.Fatalf("clean pass failed its check: %v", err)
	}
	p = runPass(t, h, s)
	raw, err := os.ReadFile(s.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(s.tracePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.check(h, p); err == nil {
		t.Fatal("a corrupted trace file passed the check")
	}
}

func TestChurnOracleCatchesCorruptedPlan(t *testing.T) {
	h := smallHarness(t)
	c, err := newChurn(h, &setupTimes{})
	if err != nil {
		t.Fatal(err)
	}
	p := runPass(t, h, c)
	if err := c.check(h, p); err != nil {
		t.Fatalf("clean pass failed its check: %v", err)
	}
	if len(c.plans) == 0 {
		t.Fatal("no plan reached the oracle")
	}
	keys := make([]string, 0, len(c.plans))
	for k := range c.plans {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if op := c.plans[k]; op.plan != nil {
			bad := *op.plan
			bad.IterTime *= 1.001
			c.plans[k] = oraclePlan{plan: &bad}
			break
		}
	}
	p = runPass(t, h, c)
	if err := c.check(h, p); err == nil {
		t.Fatal("a corrupted reference plan passed the check")
	}
}

func TestPreprocOracleCatchesMiscountedFetches(t *testing.T) {
	h := smallHarness(t)
	pp, err := newPreproc(h, &setupTimes{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pp.prepare(h); err != nil {
		t.Fatal(err)
	}
	p := runPass(t, h, pp)
	if err := pp.check(h, p); err != nil {
		t.Fatalf("clean pass failed its check: %v", err)
	}
	snap := *p.runs[0].res.Preprocess
	snap.Fetches++
	p.runs[0].res.Preprocess = &snap
	if err := pp.check(h, p); err == nil {
		t.Fatal("an aggregate that disagrees with the tenants passed the check")
	}
}

// TestReportMatchesBenchmarkJSON runs a scaled-down workload through
// both report paths and holds their metric names and units to the
// benchmark definition at the repository root.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}

	h := smallHarness(t)
	s, err := newSteady(h, &setupTimes{}, 2, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.prepare(h); err != nil {
		t.Fatal(err)
	}
	h.spans = &spanLog{origin: h.origin}
	plain, traced, err := measure(h, s, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	probes, err := runProbes(h, s.shape())
	if err != nil {
		t.Fatal(err)
	}
	units := func(ms []Metric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	want := func(list []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range list {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e := endToEnd(plain, []float64{1})
	if err := checkMetrics(e2e); err != nil {
		t.Fatal(err)
	}
	if got, w := units(e2e), want(def.EndToEnd); !reflect.DeepEqual(got, w) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, w)
	}
	layers := perLayer(plain, traced, probes, map[string]float64{}, time.Second, []float64{1}, []float64{1}, 1, 0)
	if err := checkMetrics(layers); err != nil {
		t.Fatal(err)
	}
	if got, w := units(layers), want(def.PerLayer); !reflect.DeepEqual(got, w) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, w)
	}
}
