package main

import (
	"fmt"
	"math"
	"regexp"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// Metric is one reported number with its unit.
type Metric struct {
	Name  string
	Unit  string
	Value float64
	// Note is printed beside the metric on the human-readable lines
	// (the percentile a tail resolved to, a ratio's base).
	Note string
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetrics rejects a metric set that breaks the report contract: a
// name outside [A-Za-z0-9_.-] (starting with a letter or digit, at
// most 64 long), a missing or malformed unit, a repeated name, or a
// value that is not a finite number.
func checkMetrics(ms []Metric) error {
	seen := map[string]bool{}
	for _, m := range ms {
		if !metricName.MatchString(m.Name) {
			return fmt.Errorf("metric name %q outside [A-Za-z0-9_.-]", m.Name)
		}
		if !metricUnit.MatchString(m.Unit) {
			return fmt.Errorf("metric %s has unit %q", m.Name, m.Unit)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		seen[m.Name] = true
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
	}
	return nil
}

// percentile returns the nearest-rank per-mille percentile of sorted
// (pm 500 is the median, 990 is p99); 0 for no samples.
func percentile(sorted []float64, pm int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := (pm*n + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailLevels are the candidate tail percentiles, highest first, in
// per mille.
var tailLevels = []int{999, 990, 900}

// Tail is a latency tail resolved by the ten-beyond rule.
type Tail struct {
	Label  string // "p99.9", "p99" or "p90"
	Value  float64
	Beyond int // samples strictly above the percentile's rank
	N      int
}

// tail picks the highest of p99.9, p99 and p90 that has at least ten
// samples beyond it. Below 100 samples no level qualifies; p90 is
// returned anyway and Beyond says how thin it is.
func tail(sorted []float64) Tail {
	n := len(sorted)
	for _, pm := range tailLevels {
		beyond := n - (pm*n+999)/1000
		if beyond >= 10 || pm == 900 {
			return Tail{Label: tailLabel(pm), Value: percentile(sorted, pm), Beyond: beyond, N: n}
		}
	}
	panic("unreachable")
}

func tailLabel(pm int) string {
	if pm%10 == 0 {
		return fmt.Sprintf("p%d", pm/10)
	}
	return fmt.Sprintf("p%g", float64(pm)/10)
}

func (t Tail) note() string {
	return fmt.Sprintf("%s of %d samples, %d beyond", t.Label, t.N, t.Beyond)
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sorted(xs), 500) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapInUse reads heap bytes in in-use spans (objects plus span slack)
// without stopping the world, so it can be sampled every round.
func heapInUse() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// memCounters is the slice of runtime.MemStats a pass reads at its
// boundaries.
type memCounters struct {
	numGC      uint32
	pauseNs    uint64
	totalAlloc uint64
}

func readMem() memCounters {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return memCounters{numGC: st.NumGC, pauseNs: st.PauseTotalNs, totalAlloc: st.TotalAlloc}
}
