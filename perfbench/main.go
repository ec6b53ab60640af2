// Command perfbench is the repository's benchmark. It drives the
// multi-tenant fleet through its public seams (fleet.Run and its
// OnRound callback, a trainer.Controller per job, the store.Store under
// a persistent plan cache, Trace.WriteJSON) and the layer packages
// directly, on one of four workloads generated from --seed, checks
// every pass against an oracle, and prints one JSON result line.
//
//	perfbench --workload steady-fleet --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation
// beyond the round callback. --trace 1 alternates untraced and traced
// passes (step and store spans) under a CPU profile and reports the
// per-layer metrics plus the tracing overhead. See README.md for the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many times a run sets the workload up; setup_s is
// the median.
const setupReps = 9

// minPasses is the fewest measured passes a phase makes however short
// --seconds is.
const minPasses = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured time per run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.dir, "dir", ".bench_build/run", "working directory for plan stores, traces, profiles and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = *traceFlag == 1
	w, ok := lookupWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(names, ", "))
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	rep, err := execute(w, o)
	var oe *oracleError
	switch {
	case errors.As(err, &oe):
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %v\n", w.name, oe.err)
		rep.Correct = false
	case err != nil:
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := writeReport(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// oracleError marks a pass whose outputs failed their check.
type oracleError struct{ err error }

func (e *oracleError) Error() string { return e.err.Error() }

// report is one run's outcome.
type report struct {
	Correct   bool
	Attempted int64
	Failed    int64
	// Metrics are the ones the JSON line carries; Extra (the demoted
	// tails of an end-to-end run) are printed on the human-readable
	// lines only.
	Metrics []Metric
	Extra   []Metric
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeReport prints every metric on its own line, then the result as
// one JSON object on the last line.
func writeReport(w io.Writer, rep report) error {
	if err := checkMetrics(append(append([]Metric(nil), rep.Metrics...), rep.Extra...)); err != nil {
		return err
	}
	for _, m := range append(append([]Metric(nil), rep.Metrics...), rep.Extra...) {
		line := fmt.Sprintf("%-34s %16.6g %s", m.Name, m.Value, m.Unit)
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]jsonMetric{}}
	for _, m := range rep.Metrics {
		out.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// execute runs one workload: set-up (timed, repeated), oracles, an
// unmeasured warm-up pass, then measured passes.
func execute(w workload, o options) (report, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return report{}, err
	}
	h := &harness{origin: time.Now(), dir: o.dir, procs: runtime.NumCPU(), seed: o.seed}

	var fx fixture
	var setups, corpus, calibrate []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		var st setupTimes
		t0 := time.Now()
		f, err := w.setup(h, &st)
		if err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		corpus = append(corpus, st.corpus.Seconds())
		calibrate = append(calibrate, st.calibrate.Seconds())
		fx = f
	}
	if err := fx.prepare(h); err != nil {
		return report{}, fmt.Errorf("oracles: %w", err)
	}
	h.cur = &passRec{}
	if err := fx.pass(h); err != nil {
		return report{}, fmt.Errorf("warm-up pass: %w", err)
	}
	if err := fx.check(h, h.cur); err != nil {
		return report{Correct: false, Attempted: 1, Failed: 0}, &oracleError{err}
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	rep := report{Correct: true}
	if !o.trace {
		passes, _, err := measure(h, fx, budget, false)
		rep.Attempted, rep.Failed = tally(passes)
		if err != nil {
			rep.Correct = false
			return rep, err
		}
		rep.Metrics = endToEnd(passes, setups)
		rep.Extra = latencyTails(passes)
		return rep, nil
	}

	h.spans = &spanLog{origin: h.origin}
	profPath := filepath.Join(o.dir, "cpu.pprof")
	stop, err := startProfile(profPath)
	if err != nil {
		return rep, err
	}
	plain, traced, err := measure(h, fx, budget, true)
	if perr := stop(); perr != nil && err == nil {
		err = perr
	}
	rep.Attempted, rep.Failed = tally(append(append([]*passRec(nil), plain...), traced...))
	if err != nil {
		rep.Correct = false
		return rep, err
	}
	probes, err := runProbes(h, fx.shape())
	if err != nil {
		return rep, fmt.Errorf("probes: %w", err)
	}
	shares, sampled, err := cpuShares(profPath)
	if err != nil {
		return rep, err
	}
	rep.Metrics = perLayer(plain, traced, probes, shares, sampled, corpus, calibrate, rep.Attempted, rep.Failed)
	if err := h.writeSpans(filepath.Join(o.dir, "spans-"+w.name+".json")); err != nil {
		return rep, err
	}
	return rep, nil
}

// measure repeats passes until their measured time reaches budget,
// checking each one after its clock stops. With traced set, every
// other pass is instrumented, so the untraced and traced passes share
// the machine's conditions and their difference is the tracing cost.
func measure(h *harness, fx fixture, budget time.Duration, traced bool) (plain, instrumented []*passRec, err error) {
	var spent time.Duration
	for i := 0; spent < budget || len(plain) < minPasses || (traced && len(instrumented) < minPasses); i++ {
		p := &passRec{traced: traced && i%2 == 1}
		h.cur = p
		// Every pass starts from a collected heap, so when the
		// collector runs inside a pass does not depend on the
		// garbage the previous pass and its check left behind.
		runtime.GC()
		p.mem0 = readMem()
		c0 := cpuTime()
		p.start = h.now()
		err := fx.pass(h)
		p.wall = h.now() - p.start
		p.cpu = cpuTime() - c0
		p.mem1 = readMem()
		if err != nil {
			return plain, instrumented, err
		}
		checkErr := fx.check(h, p)
		if p.traced && checkErr == nil {
			h.recordSpans(p)
		}
		summarize(p)
		if p.traced {
			instrumented = append(instrumented, p)
		} else {
			plain = append(plain, p)
		}
		if checkErr != nil {
			return plain, instrumented, &oracleError{checkErr}
		}
		spent += p.wall
	}
	return plain, instrumented, nil
}

// writeSpans writes the traced run's spans, one JSON object a line.
func (h *harness) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range h.spans.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
