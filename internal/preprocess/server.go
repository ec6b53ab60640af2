package preprocess

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"disttrain/internal/data"
	"disttrain/internal/reorder"
)

// Protocol: every message is a length-prefixed frame —
//
//	uint32   body length (big endian)
//	byte     opcode
//	...      opcode-specific body
//
// opFetch requests one DP rank's microbatches for one iteration;
// opBatch answers it. opFetchTenant is the fleet-shared form: the
// request additionally carries a tenant id and the tenant's DP width,
// so one producer fleet serves many training jobs with different
// geometries at once — opFetch is exactly opFetchTenant with tenant 0
// and the producer's configured DPSize. The protocol is deliberately
// minimal: producers are stateless per request, so any consumer can
// fetch any (tenant, iteration, rank) triple — the property that makes
// preprocessing elastically scalable (§8).
const (
	opFetch       byte = 0x01
	opFetchTenant byte = 0x02
	opBatch       byte = 0x81
	opError       byte = 0xee

	maxFrame = 1 << 30
)

// Config parameterises a producer.
type Config struct {
	// Source supplies raw samples.
	Source Source
	// GlobalBatch, DPSize and Microbatch shape each iteration's
	// assignment; GlobalBatch must divide evenly across DPSize ranks in
	// multiples of Microbatch.
	GlobalBatch, DPSize, Microbatch int
	// Reorder applies Algorithm 1 across ranks and Algorithm 2 within
	// each rank (using a token-count cost proxy over PipelineStages).
	Reorder        bool
	PipelineStages int
	// Workers bounds concurrent sample preprocessing (default
	// 2*DPSize).
	Workers int
	// Readahead prefetches this many future iterations after each
	// fetch, so consumers find their next batch already materialised.
	Readahead int
	// CacheCap bounds the iteration cache (default 64 iterations). The
	// watermark eviction keeps everything a lagging rank still needs,
	// but a dead consumer's watermark freezes forever; beyond CacheCap
	// iterations the oldest entries are dropped anyway, so a stalled
	// rank costs a bounded cache, never unbounded growth. A laggard
	// farther behind than CacheCap rebuilds on return — a cost event,
	// not a correctness one.
	CacheCap int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Source == nil:
		return errors.New("preprocess: nil source")
	case c.GlobalBatch <= 0 || c.DPSize <= 0 || c.Microbatch <= 0:
		return errors.New("preprocess: non-positive batch geometry")
	case c.GlobalBatch%(c.DPSize*c.Microbatch) != 0:
		return fmt.Errorf("preprocess: DP*M=%d must divide BS=%d", c.DPSize*c.Microbatch, c.GlobalBatch)
	case c.Reorder && c.PipelineStages < 2:
		return errors.New("preprocess: reordering needs at least 2 pipeline stages")
	}
	return nil
}

// errServerClosed marks fetches refused because the server is shutting
// down — a transport-level condition, never sent as an opError frame.
var errServerClosed = errors.New("preprocess: server closed")

// RankBatch is one rank's iteration worth of preprocessed microbatches.
type RankBatch struct {
	Iter         int64
	Rank         int
	Microbatches [][]Processed
}

// Server is the producer: it preprocesses iterations on a worker pool,
// caches them, and serves fetch requests over TCP.
type Server struct {
	cfg Config

	mu       sync.Mutex
	cache    map[buildKey][][]Processed // (iter, dp) -> [rank][mb*... flattened per rank]
	inflight map[buildKey]chan struct{}
	// watermark tracks each (tenant, rank)'s highest fetched iteration;
	// the cache evicts only below the minimum across every tenant's
	// ranks, so a lagging consumer never has its batch evicted and
	// rebuilt under it — and one tenant's laggard holds the floor for
	// every tenant's entries alike (the shared producer cache is not
	// partitioned; the consumer-side Service cache is).
	watermark map[wmKey]int64
	// tenantDP remembers each tenant's last-seen DP width: the floor is
	// only trusted once every rank of every known tenant has fetched.
	tenantDP map[uint32]int
	conns    map[net.Conn]struct{}

	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	// builds counts iteration materialisations — the cache-behaviour
	// observable the eviction tests pin.
	builds atomic.Int64
}

// NewServer validates the config and builds a producer.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2 * cfg.DPSize
	}
	if cfg.Readahead < 0 {
		cfg.Readahead = 0
	}
	if cfg.CacheCap <= 0 {
		cfg.CacheCap = 64
	}
	return &Server{
		cfg:       cfg,
		cache:     map[buildKey][][]Processed{},
		inflight:  map[buildKey]chan struct{}{},
		watermark: map[wmKey]int64{},
		tenantDP:  map[uint32]int{},
		conns:     map[net.Conn]struct{}{},
		closed:    make(chan struct{}),
	}, nil
}

// buildKey identifies one materialised iteration: tenants with
// different DP widths split (and reorder) the same global batch
// differently, so the cache is keyed by both.
type buildKey struct {
	iter int64
	dp   int
}

// wmKey identifies one consumer rank of one tenant in the fetch
// watermark.
type wmKey struct {
	tenant uint32
	rank   int
}

// Close stops the server: no new work starts, active connections are
// torn down, and Close blocks until every tracked goroutine (handlers
// and readahead builds) has finished.
func (s *Server) Close() {
	s.once.Do(func() {
		s.mu.Lock()
		close(s.closed)
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
}

// begin registers one unit of background work with the server's
// WaitGroup, refusing once the server is closed. The closed check and
// the Add share the mutex Close closes the channel under, so no work
// can slip in after Close has begun waiting.
func (s *Server) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
		s.wg.Add(1)
		return true
	}
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return err
			}
		}
		if !s.begin() {
			conn.Close()
			return nil
		}
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		select {
		case <-s.closed:
			return
		default:
		}
		body, err := readFrame(br)
		if err != nil {
			return // EOF or broken peer: drop the connection
		}
		if len(body) == 0 {
			return
		}
		switch body[0] {
		case opFetch, opFetchTenant:
			var (
				tenant uint32
				dp     int
				iter   int64
				rank   int
			)
			switch body[0] {
			case opFetch:
				if len(body) != 1+8+4 {
					writeError(bw, "malformed fetch")
					return
				}
				dp = s.cfg.DPSize
				iter = int64(binary.BigEndian.Uint64(body[1:9]))
				rank = int(binary.BigEndian.Uint32(body[9:13]))
			case opFetchTenant:
				if len(body) != 1+4+4+8+4 {
					writeError(bw, "malformed tenant fetch")
					return
				}
				tenant = binary.BigEndian.Uint32(body[1:5])
				dp = int(binary.BigEndian.Uint32(body[5:9]))
				iter = int64(binary.BigEndian.Uint64(body[9:17]))
				rank = int(binary.BigEndian.Uint32(body[17:21]))
			}
			rb, err := s.FetchTenant(tenant, dp, iter, rank)
			if err != nil {
				// Shutdown is a transport event, not a protocol answer:
				// dropping the connection makes the consuming Service fail
				// over, whereas an opError frame would be classified as
				// a deterministic ServerError and returned to the
				// caller unretried.
				if errors.Is(err, errServerClosed) {
					return
				}
				writeError(bw, err.Error())
				bw.Flush()
				continue
			}
			if err := writeBatch(bw, rb); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		default:
			writeError(bw, fmt.Sprintf("unknown opcode %#x", body[0]))
			bw.Flush()
			return
		}
	}
}

// Fetch returns one rank's batch at the producer's configured DP
// width, materialising the iteration if needed and kicking off
// readahead for subsequent iterations — the single-tenant path,
// identical to FetchTenant with tenant 0.
func (s *Server) Fetch(iter int64, rank int) (*RankBatch, error) {
	return s.FetchTenant(0, s.cfg.DPSize, iter, rank)
}

// FetchTenant returns one (tenant, iteration, rank) batch split across
// dp data-parallel ranks. The tenant id partitions the fetch watermark
// (each tenant's laggard is tracked separately); dp must divide the
// global batch in multiples of the microbatch — a deterministic
// protocol rejection otherwise, never a failover.
func (s *Server) FetchTenant(tenant uint32, dp int, iter int64, rank int) (*RankBatch, error) {
	if dp < 1 || s.cfg.GlobalBatch%(dp*s.cfg.Microbatch) != 0 {
		return nil, fmt.Errorf("preprocess: DP*M=%d must divide BS=%d", dp*s.cfg.Microbatch, s.cfg.GlobalBatch)
	}
	if rank < 0 || rank >= dp {
		return nil, fmt.Errorf("preprocess: rank %d outside DP size %d", rank, dp)
	}
	select {
	case <-s.closed:
		return nil, errServerClosed
	default:
	}
	s.mu.Lock()
	if prev, ok := s.tenantDP[tenant]; !ok || prev != dp {
		// A tenant changing width (elastic lease resize) invalidates its
		// stale rank watermarks: entries at ranks the new geometry no
		// longer has would freeze the eviction floor forever.
		for k := range s.watermark {
			if k.tenant == tenant && k.rank >= dp {
				delete(s.watermark, k)
			}
		}
		s.tenantDP[tenant] = dp
	}
	wk := wmKey{tenant, rank}
	if w, ok := s.watermark[wk]; !ok || iter > w {
		s.watermark[wk] = iter
		s.evictLocked()
	}
	s.mu.Unlock()
	perRank, err := s.iteration(iter, dp)
	if err != nil {
		return nil, err
	}
	// Asynchronous readahead: the producer works ahead of training. Each
	// warmup goroutine is registered with the server's WaitGroup and
	// re-checks closed before building, so Close never returns while a
	// build is still touching the Source.
	for ahead := int64(1); ahead <= int64(s.cfg.Readahead); ahead++ {
		it := iter + ahead
		if !s.begin() {
			break
		}
		go func() {
			defer s.wg.Done()
			select {
			case <-s.closed:
			default:
				s.iteration(it, dp) //nolint:errcheck // best-effort warmup
			}
		}()
	}
	m := s.cfg.Microbatch
	k := len(perRank[rank]) / m
	rb := &RankBatch{Iter: iter, Rank: rank, Microbatches: make([][]Processed, k)}
	for j := 0; j < k; j++ {
		rb.Microbatches[j] = perRank[rank][j*m : (j+1)*m]
	}
	return rb, nil
}

// iteration materialises (or waits for) one preprocessed iteration at
// one DP width.
func (s *Server) iteration(iter int64, dp int) ([][]Processed, error) {
	key := buildKey{iter, dp}
	s.mu.Lock()
	if got, ok := s.cache[key]; ok {
		s.mu.Unlock()
		return got, nil
	}
	if ch, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
		got, ok := s.cache[key]
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("preprocess: iteration %d failed", iter)
		}
		return got, nil
	}
	done := make(chan struct{})
	s.inflight[key] = done
	s.mu.Unlock()

	out, err := s.build(iter, dp)

	s.mu.Lock()
	delete(s.inflight, key)
	if err == nil {
		s.cache[key] = out
		s.evictLocked()
	}
	s.mu.Unlock()
	close(done)
	return out, err
}

// evictLocked bounds the cache against the minimum fetch watermark
// across every tenant's ranks: an iteration is dropped only once every
// rank of every known tenant has fetched past it. Evicting relative to
// the newest build instead would rebuild a lagging rank's batch on
// every fetch. Until every known tenant has had all of its DP ranks
// fetch at least once there is no safe floor from the watermarks.
// Either way CacheCap backstops the cache size — oldest iterations
// drop first — so a dead or never-connecting rank cannot grow the
// cache without bound. Callers hold s.mu.
func (s *Server) evictLocked() {
	complete := len(s.tenantDP) > 0
	min := int64(0)
	first := true
	ranksSeen := make(map[uint32]int, len(s.tenantDP))
	for k, w := range s.watermark {
		ranksSeen[k.tenant]++
		if first || w < min {
			min, first = w, false
		}
	}
	for tn, dp := range s.tenantDP {
		if ranksSeen[tn] != dp {
			complete = false
			break
		}
	}
	if complete {
		for k := range s.cache {
			if k.iter < min {
				delete(s.cache, k)
			}
		}
	}
	for len(s.cache) > s.cfg.CacheCap {
		var oldest buildKey
		first := true
		for k := range s.cache {
			if first || k.iter < oldest.iter || (k.iter == oldest.iter && k.dp < oldest.dp) {
				oldest, first = k, false
			}
		}
		delete(s.cache, oldest)
	}
}

// build preprocesses one full iteration at one DP width: fetch raw
// samples, run the pixel pipeline on the worker pool, then apply both
// reordering levels.
func (s *Server) build(iter int64, dp int) ([][]Processed, error) {
	s.builds.Add(1)
	bs := s.cfg.GlobalBatch
	raw := make([]data.Sample, bs)
	for i := range raw {
		raw[i] = s.cfg.Source.Sample(iter*int64(bs) + int64(i))
	}
	processed := make([]Processed, bs)
	errs := make([]error, bs)
	sem := make(chan struct{}, s.cfg.Workers)
	var wg sync.WaitGroup
	for i := range raw {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			processed[i], errs[i] = ProcessSample(raw[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	perRank := len(processed) / dp
	out := make([][]Processed, dp)
	if !s.cfg.Reorder {
		for d := range out {
			out[d] = processed[d*perRank : (d+1)*perRank]
		}
		return out, nil
	}
	// Algorithm 1 across ranks, with the modality token count as the
	// heterogeneous-cost proxy.
	_, groups, err := reorder.IntraReorder(processed, modalitySize, dp)
	if err != nil {
		return nil, err
	}
	groups = rebalanceProcessed(groups, perRank)
	// Algorithm 2 within each rank over a stage-time proxy: encoder
	// time tracks image tokens, generator time tracks generated images,
	// the LLM stages are constant.
	for d := range groups {
		mbs := make([]reorder.Microbatch, len(groups[d]))
		for j, p := range groups[d] {
			fwd := make([]float64, s.cfg.PipelineStages)
			bwd := make([]float64, s.cfg.PipelineStages)
			for st := range fwd {
				switch st {
				case 0:
					fwd[st] = float64(p.ImageTokens)
				case s.cfg.PipelineStages - 1:
					fwd[st] = 1024 * float64(p.GenImages)
				default:
					fwd[st] = 8192
				}
				bwd[st] = 2 * fwd[st]
			}
			mbs[j] = reorder.Microbatch{Index: j, Fwd: fwd, Bwd: bwd}
		}
		order, err := reorder.InterReorder(mbs, nil)
		if err != nil {
			return nil, err
		}
		reordered := make([]Processed, len(order))
		for j, mb := range order {
			reordered[j] = groups[d][mb.Index]
		}
		out[d] = reordered
	}
	return out, nil
}

// modalitySize is the heterogeneous-cost proxy of a processed sample:
// modality tokens plus a fixed charge per generated image. Algorithm
// 1's partition and the rebalance below both order by it.
func modalitySize(p Processed) float64 {
	return float64(p.ImageTokens) + 64*float64(p.GenImages)
}

// rebalanceProcessed equalises group cardinalities after LPT, moving
// surplus samples smallest-cost first — the same contract the
// trainer's rebalance pins: moving the cheapest samples does the least
// damage to the partition balance. The multiset of samples is
// preserved; only ownership moves.
func rebalanceProcessed(groups [][]Processed, perRank int) [][]Processed {
	var surplus []Processed
	for d := range groups {
		if len(groups[d]) > perRank {
			surplus = append(surplus, groups[d][perRank:]...)
			groups[d] = groups[d][:perRank]
		}
	}
	// Smallest first; stable so ties keep the deterministic group
	// emission order.
	sort.SliceStable(surplus, func(a, b int) bool {
		return modalitySize(surplus[a]) < modalitySize(surplus[b])
	})
	for d := range groups {
		for len(groups[d]) < perRank && len(surplus) > 0 {
			groups[d] = append(groups[d], surplus[0])
			surplus = surplus[1:]
		}
	}
	return groups
}

// --- wire helpers ---

func readFrame(r *bufio.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > maxFrame {
		return nil, fmt.Errorf("preprocess: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

func writeFrame(w *bufio.Writer, body []byte) error {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(body)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

func writeError(w *bufio.Writer, msg string) {
	body := append([]byte{opError}, msg...)
	writeFrame(w, body) //nolint:errcheck // connection teardown follows
}

func writeBatch(w *bufio.Writer, rb *RankBatch) error {
	// opcode + iter + rank + mbCount, then per microbatch: sample count
	// and per sample: index, image/text/gen meta, payload.
	size := 1 + 8 + 4 + 4
	for _, mb := range rb.Microbatches {
		size += 4
		for _, p := range mb {
			size += 8 + 4 + 4 + 4 + 4 + len(p.TokenPayload)
		}
	}
	body := make([]byte, 0, size)
	body = append(body, opBatch)
	body = binary.BigEndian.AppendUint64(body, uint64(rb.Iter))
	body = binary.BigEndian.AppendUint32(body, uint32(rb.Rank))
	body = binary.BigEndian.AppendUint32(body, uint32(len(rb.Microbatches)))
	for _, mb := range rb.Microbatches {
		body = binary.BigEndian.AppendUint32(body, uint32(len(mb)))
		for _, p := range mb {
			body = binary.BigEndian.AppendUint64(body, uint64(p.SampleIndex))
			body = binary.BigEndian.AppendUint32(body, uint32(p.ImageTokens))
			body = binary.BigEndian.AppendUint32(body, uint32(p.TextTokens))
			body = binary.BigEndian.AppendUint32(body, uint32(p.GenImages))
			body = binary.BigEndian.AppendUint32(body, uint32(len(p.TokenPayload)))
			body = append(body, p.TokenPayload...)
		}
	}
	return writeFrame(w, body)
}

// ServerError is a protocol-level error frame sent by a producer — a
// deterministic rejection (bad rank, failed build), not a transport
// failure, so consumers must not fail over on it.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "preprocess: server error: " + e.Msg }

// sampleHeaderLen is the fixed wire size of one sample's metadata:
// index (8) + image/text/gen token counts (4 each) + payload length (4).
const sampleHeaderLen = 8 + 4 + 4 + 4 + 4

func parseBatch(body []byte) (*RankBatch, error) {
	if len(body) < 1+8+4+4 || body[0] != opBatch {
		if len(body) > 0 && body[0] == opError {
			return nil, &ServerError{Msg: string(body[1:])}
		}
		return nil, errors.New("preprocess: malformed batch frame")
	}
	off := 1
	u64 := func() uint64 { v := binary.BigEndian.Uint64(body[off:]); off += 8; return v }
	u32 := func() uint32 { v := binary.BigEndian.Uint32(body[off:]); off += 4; return v }
	rb := &RankBatch{Iter: int64(u64()), Rank: int(u32())}
	// Wire-supplied counts are untrusted: every count is bounds-checked
	// against the bytes actually remaining in the frame before it sizes
	// an allocation, so a corrupt or adversarial frame cannot drive
	// multi-gigabyte makes.
	mbCount := int(u32())
	if mbCount < 0 || mbCount > (len(body)-off)/4 {
		return nil, fmt.Errorf("preprocess: implausible microbatch count %d in %d-byte frame", mbCount, len(body))
	}
	rb.Microbatches = make([][]Processed, 0, mbCount)
	for j := 0; j < mbCount; j++ {
		if off+4 > len(body) {
			return nil, errors.New("preprocess: truncated batch frame")
		}
		n := int(u32())
		if n < 0 || n > (len(body)-off)/sampleHeaderLen {
			return nil, fmt.Errorf("preprocess: implausible sample count %d in %d-byte frame", n, len(body))
		}
		mb := make([]Processed, 0, n)
		for i := 0; i < n; i++ {
			if off+sampleHeaderLen > len(body) {
				return nil, errors.New("preprocess: truncated sample header")
			}
			var p Processed
			p.SampleIndex = int64(u64())
			p.ImageTokens = int32(u32())
			p.TextTokens = int32(u32())
			p.GenImages = int32(u32())
			plen := int(u32())
			if plen < 0 || plen > len(body)-off {
				return nil, errors.New("preprocess: truncated payload")
			}
			p.TokenPayload = append([]byte(nil), body[off:off+plen]...)
			off += plen
			mb = append(mb, p)
		}
		rb.Microbatches = append(rb.Microbatches, mb)
	}
	return rb, nil
}

// Colocated runs the identical preprocessing pipeline synchronously on
// the caller — the monolithic baseline whose stall Figure 17 measures.
type Colocated struct {
	cfg Config
}

// NewColocated builds the inline preprocessor.
func NewColocated(cfg Config) (*Colocated, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Colocated{cfg: cfg}, nil
}

// Fetch preprocesses one rank's batch on the calling goroutine,
// blocking the training loop for the full CPU cost.
func (c *Colocated) Fetch(ctx context.Context, iter int64, rank int) (*RankBatch, error) {
	bs := c.cfg.GlobalBatch
	perRank := bs / c.cfg.DPSize
	m := c.cfg.Microbatch
	rb := &RankBatch{Iter: iter, Rank: rank}
	start := iter*int64(bs) + int64(rank*perRank)
	var mb []Processed
	for i := 0; i < perRank; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := ProcessSample(c.cfg.Source.Sample(start + int64(i)))
		if err != nil {
			return nil, err
		}
		mb = append(mb, p)
		if len(mb) == m {
			rb.Microbatches = append(rb.Microbatches, mb)
			mb = nil
		}
	}
	return rb, nil
}
