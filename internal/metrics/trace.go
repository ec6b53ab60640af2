package metrics

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
)

// Chrome-trace-format timeline emission: the runtime records every
// phase of every iteration (preprocess stall, per-rank pipeline ops,
// gradient sync, optimizer, checkpoint back-pressure, failures and
// recoveries) as "trace event format" JSON, loadable in
// chrome://tracing or Perfetto. Process IDs partition the timeline:
// pid 0 is the runtime's serial phases, pid d+1 is DP rank d, whose
// thread IDs are pipeline stages.

// TraceEvent is one trace entry. Ph "X" is a complete (duration)
// event, "i" an instant, "M" metadata; TS and Dur are microseconds,
// per the format spec.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace accumulates trace events in append order; safe for concurrent
// use. Every writer appends to one buffer under one lock: no trace has
// concurrent writers in practice (the trainer records in its serial
// reduce, and the fleet gives every tenant a private trace), so the
// lock is uncontended and append order is the output order.
type Trace struct {
	mu     sync.Mutex
	events []TraceEvent
	maxPID int
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Reserve pre-grows the buffer for n more events without recording
// anything — callers that know the run length (iterations × ops per
// iteration) preallocate capacity instead of amortized re-growing.
func (t *Trace) Reserve(n int) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = slices.Grow(t.events, n)
}

// Complete records a duration event. start and dur are in simulated
// seconds; the trace stores microseconds.
func (t *Trace) Complete(name, cat string, pid, tid int, start, dur float64) {
	t.add(TraceEvent{Name: name, Cat: cat, Ph: "X", TS: start * 1e6, Dur: dur * 1e6, PID: pid, TID: tid})
}

// Instant records a point event at start seconds.
func (t *Trace) Instant(name, cat string, pid int, start float64, args map[string]any) {
	t.add(TraceEvent{Name: name, Cat: cat, Ph: "i", TS: start * 1e6, PID: pid, Args: args})
}

// NameProcess attaches a human-readable name to a pid lane.
func (t *Trace) NameProcess(pid int, name string) {
	t.add(TraceEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
}

func (t *Trace) add(ev TraceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, ev)
	t.maxPID = max(t.maxPID, ev.PID)
}

// recorded returns the events recorded so far, capped so later appends
// cannot reach into it. Recorded events are never rewritten, so the
// slice is safe to read without the lock.
func (t *Trace) recorded() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events[:len(t.events):len(t.events)]
}

// Len returns the recorded event count.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events in append order.
func (t *Trace) Events() []TraceEvent {
	return slices.Clone(t.recorded())
}

// MaxPID returns the highest process ID any recorded event uses (0 for
// an empty trace) — the lane width a merge must step over.
func (t *Trace) MaxPID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.maxPID
}

// AppendOffset merges another trace into this one: every event of src
// is appended in order with its PID shifted by pidBase, and
// process_name metadata gets the given prefix so lanes stay
// attributable after the merge. The fleet runtime uses it to fold
// per-job timelines into one fleet Chrome trace — job j's lanes land
// at [base_j, base_j + MaxPID_j], disjoint from every other tenant's.
// Deterministic: same src contents and arguments, same appended
// events.
func (t *Trace) AppendOffset(src *Trace, pidBase int, prefix string) {
	evs := src.recorded()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = slices.Grow(t.events, len(evs))
	for _, ev := range evs {
		ev.PID += pidBase
		if ev.Ph == "M" && ev.Name == "process_name" && prefix != "" {
			args := maps.Clone(ev.Args)
			if name, ok := args["name"].(string); ok {
				args["name"] = prefix + name
			}
			ev.Args = args
		}
		t.events = append(t.events, ev)
		t.maxPID = max(t.maxPID, ev.PID)
	}
}

// WriteJSON emits the Chrome trace file ({"traceEvents": [...]}).
func (t *Trace) WriteJSON(w io.Writer) error {
	events := t.recorded()
	if events == nil {
		events = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}{events})
}

// WriteJSONFile writes the trace to path atomically: the JSON is
// encoded into a temporary file in the same directory and renamed into
// place only after a successful encode+sync, so a failure mid-write
// never leaves a truncated or corrupt timeline behind (the bare
// os.Create + encode it replaces did exactly that).
func (t *Trace) WriteJSONFile(path string) error {
	return WriteFileAtomic(path, t.WriteJSON)
}

// WriteFileAtomic streams write's output into a temporary file next to
// path and renames it into place on success. On any failure the
// temporary file is removed and the destination is left untouched.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("metrics: atomic write %s: %w", path, err)
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("metrics: atomic write %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("metrics: atomic write %s: %w", path, err)
	}
	// The rename is atomic but not durable until the directory entry
	// itself is on stable storage: a crash after rename but before the
	// metadata flush can forget the file entirely. Fsync the parent
	// directory to close that window (EINVAL is tolerated — some
	// filesystems reject fsync on directories and provide the ordering
	// themselves).
	if d, derr := os.Open(dir); derr == nil {
		serr := d.Sync()
		d.Close()
		if serr != nil && !errors.Is(serr, syscall.EINVAL) {
			return fmt.Errorf("metrics: atomic write %s: sync dir: %w", path, serr)
		}
	}
	return nil
}
