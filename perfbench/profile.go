package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// sharePackages are the layers whose CPU share the traced run reports:
// the ones the benchmark has no public seam into on the hot path.
var sharePackages = []string{"model", "pipeline", "reorder", "orchestrator", "solve", "preprocess", "metrics"}

// startProfile begins a CPU profile into path; the returned function
// stops it and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// cpuShares reads a CPU profile with `go tool pprof -traces` and
// returns, per package of the repository's internal tree, the share of
// sampled CPU time whose stack passes through that package at least
// once (its cumulative share), together with the total sampled time.
func cpuShares(path string) (map[string]float64, time.Duration, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTraces(out)
}

// parseTraces folds pprof's -traces listing: stacks separated by
// "-----------+----" lines, the first frame of each prefixed by the
// sample's value ("10ms", "1.20s").
func parseTraces(out []byte) (map[string]float64, time.Duration, error) {
	byPkg := map[string]time.Duration{}
	var total, cur time.Duration
	inStack := map[string]bool{}
	flush := func() {
		for pkg := range inStack {
			byPkg[pkg] += cur
		}
		total += cur
		cur = 0
		inStack = map[string]bool{}
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	started := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			if started {
				flush()
			}
			started = true
			continue
		}
		if !started {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fn := fields[0]
		if d, err := time.ParseDuration(fields[0]); err == nil && len(fields) >= 2 {
			cur = d
			fn = fields[1]
		}
		if pkg, ok := internalPackage(fn); ok {
			inStack[pkg] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if started {
		flush()
	}
	shares := map[string]float64{}
	for _, pkg := range sharePackages {
		if total > 0 {
			shares[pkg] = float64(byPkg[pkg]) / float64(total)
		}
	}
	return shares, total, nil
}

// internalPackage maps "disttrain/internal/model.MLLM.ModuleFwdFLOPs"
// to "model".
func internalPackage(fn string) (string, bool) {
	const prefix = "disttrain/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i], true
	}
	return "", false
}
