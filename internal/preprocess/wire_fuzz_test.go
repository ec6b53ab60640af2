package preprocess

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"disttrain/internal/metrics"
)

// encodeBatch serialises a RankBatch body (no frame length prefix) the
// way writeBatch puts it on the wire.
func encodeBatch(t testing.TB, rb *RankBatch) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := newTestWriter(&buf)
	if err := writeBatch(bw, rb); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	return buf.Bytes()[4:]
}

// Property: encode/parse round-trips arbitrary multi-microbatch
// batches exactly.
func TestWireRoundTripMultiMicrobatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		rb := &RankBatch{Iter: rng.Int63n(1 << 40), Rank: rng.Intn(64)}
		for j := 0; j < rng.Intn(4); j++ {
			var mb []Processed
			for i := 0; i < rng.Intn(4); i++ {
				payload := make([]byte, rng.Intn(64))
				rng.Read(payload)
				mb = append(mb, Processed{
					SampleIndex:  rng.Int63(),
					ImageTokens:  int32(rng.Intn(1 << 16)),
					TextTokens:   int32(rng.Intn(1 << 16)),
					GenImages:    int32(rng.Intn(4)),
					TokenPayload: payload,
				})
			}
			rb.Microbatches = append(rb.Microbatches, mb)
		}
		got, err := parseBatch(encodeBatch(t, rb))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Iter != rb.Iter || got.Rank != rb.Rank || len(got.Microbatches) != len(rb.Microbatches) {
			t.Fatalf("trial %d: batch identity mangled", trial)
		}
		for j := range rb.Microbatches {
			for i := range rb.Microbatches[j] {
				w, g := rb.Microbatches[j][i], got.Microbatches[j][i]
				if w.SampleIndex != g.SampleIndex || w.ImageTokens != g.ImageTokens ||
					w.TextTokens != g.TextTokens || w.GenImages != g.GenImages ||
					!bytes.Equal(w.TokenPayload, g.TokenPayload) {
					t.Fatalf("trial %d mb %d sample %d mangled", trial, j, i)
				}
			}
		}
	}
}

// A frame may claim any counts it likes; the parser must reject
// implausible ones before they size allocations.
func TestParseBatchRejectsAdversarialCounts(t *testing.T) {
	valid := encodeBatch(t, &RankBatch{Iter: 1, Rank: 0, Microbatches: [][]Processed{
		{{SampleIndex: 9, TokenPayload: []byte("abcd")}},
	}})
	cases := map[string]func([]byte){
		"huge microbatch count": func(b []byte) { binary.BigEndian.PutUint32(b[13:], 1<<30) },
		"huge sample count":     func(b []byte) { binary.BigEndian.PutUint32(b[17:], 1<<30) },
		"huge payload length":   func(b []byte) { binary.BigEndian.PutUint32(b[41:], 1<<29) },
	}
	for name, corrupt := range cases {
		body := append([]byte(nil), valid...)
		corrupt(body)
		if _, err := parseBatch(body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Truncations at every boundary parse as errors, never panic.
	for cut := 0; cut < len(valid); cut++ {
		if _, err := parseBatch(valid[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// FuzzParseBatch drives the parser over adversarial frames: it must
// never panic or over-allocate, and whatever parses must re-encode and
// re-parse to the identical batch (trailing garbage excepted — the
// parser ignores bytes past the declared counts).
func FuzzParseBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{opError, 'x'})
	valid := encodeBatch(f, &RankBatch{Iter: 7, Rank: 3, Microbatches: [][]Processed{
		{{SampleIndex: 1, ImageTokens: 2, TextTokens: 3, GenImages: 1, TokenPayload: []byte{1, 2, 3}}},
		{{SampleIndex: 4, TokenPayload: nil}},
	}})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	huge := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(huge[13:], 0xfffffff0)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, body []byte) {
		rb, err := parseBatch(body)
		if err != nil {
			return
		}
		reparsed, err := parseBatch(encodeBatch(t, rb))
		if err != nil {
			t.Fatalf("canonical re-encode failed to parse: %v", err)
		}
		if !reflect.DeepEqual(normalize(rb), normalize(reparsed)) {
			t.Fatalf("round trip diverged:\n%+v\n%+v", rb, reparsed)
		}
	})
}

// normalize maps nil and empty payload slices to one form so
// DeepEqual compares content, not allocation accidents.
func normalize(rb *RankBatch) *RankBatch {
	out := &RankBatch{Iter: rb.Iter, Rank: rb.Rank}
	for _, mb := range rb.Microbatches {
		var nmb []Processed
		for _, p := range mb {
			if len(p.TokenPayload) == 0 {
				p.TokenPayload = nil
			}
			nmb = append(nmb, p)
		}
		out.Microbatches = append(out.Microbatches, nmb)
	}
	return out
}

// tenantFrame encodes one opFetchTenant request body.
func tenantFrame(tenant uint32, dp int, iter int64, rank int) []byte {
	body := []byte{opFetchTenant}
	body = binary.BigEndian.AppendUint32(body, tenant)
	body = binary.BigEndian.AppendUint32(body, uint32(dp))
	body = binary.BigEndian.AppendUint64(body, uint64(iter))
	return binary.BigEndian.AppendUint32(body, uint32(rank))
}

// A negative iteration is a deterministic rejection: the producer
// answers with an opError frame, so the service returns a ServerError
// instead of failing over across members that would all refuse it.
func TestNegativeIterationRejected(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	client, err := DialTimeout(fleet.Addrs()[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var se *ServerError
	if _, err := client.FetchTenant(context.Background(), 0, 2, -3, 0); !errors.As(err, &se) {
		t.Fatalf("negative iteration over the wire: got %v, want a ServerError", err)
	}
	stats := &metrics.PoolStats{}
	tn := testTenant(t, fleet, ServiceConfig{Stats: stats})
	if _, err := tn.Fetch(context.Background(), -3, 0); !errors.As(err, &se) {
		t.Fatalf("negative iteration through the service: got %v, want a ServerError", err)
	}
	if got := stats.Snapshot().Failovers; got != 0 {
		t.Errorf("deterministic rejection caused %d failovers", got)
	}
}

// FuzzServerFrame feeds arbitrary frame bodies to the producer's
// connection handler over an in-memory pipe. Whatever arrives, the
// handler answers with one batch or one opError frame, or closes the
// connection — it never panics and never hangs.
func FuzzServerFrame(f *testing.F) {
	retired := []byte{0x01} // the removed single-tenant fetch op
	retired = binary.BigEndian.AppendUint64(retired, 0)
	f.Add(binary.BigEndian.AppendUint32(retired, 0))
	f.Add(tenantFrame(0, 2, -3, 0))
	f.Add(tenantFrame(0, 2, 1, 1)[:10])
	f.Add(tenantFrame(7, 4, 2, 3))
	f.Add(tenantFrame(0, 3, 0, 0))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		cfg := fleetConfig()
		cfg.GlobalBatch, cfg.Workers, cfg.CacheCap = 4, 2, 2
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		peer, conn := net.Pipe()
		defer peer.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handle(conn)
		}()
		go func() {
			frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
			peer.Write(append(frame, body...)) //nolint:errcheck // the handler may hang up first
		}()

		peer.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		reply, err := readFrame(bufio.NewReader(peer))
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			t.Fatal("handler neither answered nor closed the connection")
		case err != nil:
			// The handler hung up: an allowed answer.
		case len(reply) > 0 && reply[0] == opError:
		default:
			if _, err := parseBatch(reply); err != nil {
				t.Fatalf("reply is neither a batch nor an error frame: %v", err)
			}
		}
		peer.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("handler did not return after the peer closed")
		}
	})
}
