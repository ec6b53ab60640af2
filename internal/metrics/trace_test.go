package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"testing"
)

func TestTraceWriteJSON(t *testing.T) {
	tr := NewTrace()
	tr.NameProcess(0, "runtime")
	tr.Complete("preprocess", "data", 0, 0, 0, 0.25)
	tr.Complete("F0", "pipeline", 1, 2, 0.25, 0.1)
	tr.Instant("failure", "scenario", 0, 1.5, map[string]any{"iter": 3})

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) != tr.Len() || tr.Len() != 4 {
		t.Fatalf("round-trip lost events: wrote %d, read %d", tr.Len(), len(decoded.TraceEvents))
	}
	// Seconds become microseconds.
	ev := decoded.TraceEvents[2]
	if ev.TS != 0.25*1e6 || ev.Dur != 0.1*1e6 || ev.PID != 1 || ev.TID != 2 {
		t.Errorf("event mangled: %+v", ev)
	}
}

func TestTraceEmptyWritesValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["traceEvents"].([]any); !ok {
		t.Errorf("empty trace should still carry a traceEvents array: %s", buf.String())
	}
}

func TestTraceConcurrentAdds(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Complete("op", "x", w, 0, float64(i), 1)
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Errorf("lost events under concurrency: %d", tr.Len())
	}
}

// TestTraceReadsDuringAppends: readers take the recorded slice without
// holding the lock while a writer keeps appending, so every snapshot
// must be an intact prefix of the final event order. Run under -race.
func TestTraceReadsDuringAppends(t *testing.T) {
	tr := NewTrace()
	const n = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			tr.Complete("op", "x", i%4, 0, float64(i), 1)
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		for i, ev := range tr.Events() {
			if int(ev.TS) != i*1e6 {
				t.Fatalf("snapshot event %d has ts %v", i, ev.TS)
			}
		}
		if err := tr.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
		NewTrace().AppendOffset(tr, 0, "")
	}
	if tr.Len() != n {
		t.Fatalf("recorded %d events, want %d", tr.Len(), n)
	}
}

// TestTraceShardedLanes pins the sharded recorder's invariants under
// concurrent writers on distinct PID lanes: no event lost, MaxPID
// tracked incrementally, and each lane's events surface in that lane's
// append order (writers on different lanes interleave by the global
// sequence, but one writer's own events never reorder).
func TestTraceShardedLanes(t *testing.T) {
	tr := NewTrace()
	const writers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Complete("op", "x", w, 0, float64(i), 1)
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != writers*per {
		t.Fatalf("lost events: %d of %d", tr.Len(), writers*per)
	}
	if tr.MaxPID() != writers-1 {
		t.Errorf("MaxPID = %d, want %d", tr.MaxPID(), writers-1)
	}
	next := make([]int, writers)
	for _, ev := range tr.Events() {
		if int(ev.TS) != next[ev.PID]*1e6 {
			t.Fatalf("lane %d out of order: event ts %v, want %d", ev.PID, ev.TS, next[ev.PID])
		}
		next[ev.PID]++
	}
	for w, n := range next {
		if n != per {
			t.Errorf("lane %d surfaced %d events, want %d", w, n, per)
		}
	}
}

// TestTraceReserve: pre-growing the buffer records nothing, and the
// reserved capacity absorbs that many appends without reallocating.
func TestTraceReserve(t *testing.T) {
	tr := NewTrace()
	tr.Reserve(64)
	if tr.Len() != 0 {
		t.Fatalf("Reserve recorded %d events", tr.Len())
	}
	if tr.MaxPID() != 0 {
		t.Fatalf("Reserve moved MaxPID to %d", tr.MaxPID())
	}
	if cap(tr.events) < 64 {
		t.Fatalf("reserved capacity %d, want >= 64", cap(tr.events))
	}
	base := cap(tr.events)
	for i := 0; i < 64; i++ {
		tr.Complete("op", "x", 3, 0, float64(i), 1)
	}
	if cap(tr.events) != base {
		t.Errorf("buffer regrew from %d to %d despite the reservation", base, cap(tr.events))
	}
	if tr.Len() != 64 || tr.MaxPID() != 3 {
		t.Errorf("Len=%d MaxPID=%d after 64 appends to lane 3", tr.Len(), tr.MaxPID())
	}
	tr.Reserve(-1) // no-op, must not shrink or panic
	if cap(tr.events) != base {
		t.Errorf("Reserve(-1) changed capacity")
	}
}

// TestTraceDeterministicBytes: two traces recording the same event
// sequence — whatever their lane layout — serialize byte-identically.
// This is the recorder-level half of the fleet's merged-trace
// determinism gate.
func TestTraceDeterministicBytes(t *testing.T) {
	record := func() *Trace {
		tr := NewTrace()
		tr.NameProcess(0, "runtime")
		for i := 0; i < 50; i++ {
			pid := i % 3
			tr.Complete("op", "x", pid, i%2, float64(i), 0.5)
			if i%7 == 0 {
				tr.Instant("mark", "x", pid, float64(i), map[string]any{"i": i})
			}
		}
		return tr
	}
	var a, b bytes.Buffer
	if err := record().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := record().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("same recording serialized differently:\n%s\nvs\n%s", a.String(), b.String())
	}
}
