package preprocess

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is the consumer side of disaggregated preprocessing: the GPU
// training process fetches ready microbatches over TCP.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// timeout bounds one request round trip.
	timeout time.Duration
}

// Dial connects to a producer.
func Dial(addr string) (*Client, error) { return DialTimeout(addr, 0) }

// DialTimeout connects to a producer, bounding the connection attempt
// (0 means the operating system default). The Service uses a short bound
// so a dead producer fails over in milliseconds, not minutes.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, fmt.Errorf("preprocess: dial %s: %w", addr, err)
	}
	return &Client{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 1<<20),
		bw:      bufio.NewWriter(conn),
		timeout: 120 * time.Second,
	}, nil
}

// SetTimeout bounds one request round trip (default 120s).
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.timeout = d
	}
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Fetch requests one (iteration, rank) batch at the producer's
// configured DP width. Requests on one client are serialised; use one
// client per consumer rank (the production layout).
func (c *Client) Fetch(ctx context.Context, iter int64, rank int) (*RankBatch, error) {
	req := make([]byte, 0, 13)
	req = append(req, opFetch)
	req = binary.BigEndian.AppendUint64(req, uint64(iter))
	req = binary.BigEndian.AppendUint32(req, uint32(rank))
	return c.roundTrip(ctx, req)
}

// FetchTenant requests one (tenant, iteration, rank) batch split
// across dp data-parallel ranks — the fleet-shared form of Fetch, for
// consumers multiplexing one producer fleet across tenants with
// differing geometries.
func (c *Client) FetchTenant(ctx context.Context, tenant uint32, dp int, iter int64, rank int) (*RankBatch, error) {
	req := make([]byte, 0, 21)
	req = append(req, opFetchTenant)
	req = binary.BigEndian.AppendUint32(req, tenant)
	req = binary.BigEndian.AppendUint32(req, uint32(dp))
	req = binary.BigEndian.AppendUint64(req, uint64(iter))
	req = binary.BigEndian.AppendUint32(req, uint32(rank))
	return c.roundTrip(ctx, req)
}

// roundTrip sends one request frame and parses the answer, under the
// client's request serialisation and round-trip deadline.
func (c *Client) roundTrip(ctx context.Context, req []byte) (*RankBatch, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	deadline := time.Now().Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if err := writeFrame(c.bw, req); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	body, err := readFrame(c.br)
	if err != nil {
		return nil, err
	}
	return parseBatch(body)
}

// Prefetcher overlaps fetching with training: while the trainer
// consumes iteration i, the prefetcher is already pulling iteration
// i+1 — this is what turns data-arrival stalls from seconds into
// milliseconds (Figure 17).
type Prefetcher struct {
	client *Client
	rank   int

	next    int64
	pending chan fetchResult
	cancel  context.CancelFunc
	done    chan struct{}
	// terminal is the error that stopped the loop; published before
	// pending closes, so Next re-delivers it forever once the queue
	// drains instead of blocking on a channel nothing feeds.
	terminal error
}

type fetchResult struct {
	rb  *RankBatch
	err error
}

// NewPrefetcher starts prefetching from the given iteration with the
// given queue depth.
func NewPrefetcher(client *Client, rank int, startIter int64, depth int) *Prefetcher {
	if depth < 1 {
		depth = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Prefetcher{
		client:  client,
		rank:    rank,
		next:    startIter,
		pending: make(chan fetchResult, depth),
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	go p.loop(ctx)
	return p
}

func (p *Prefetcher) loop(ctx context.Context) {
	defer close(p.done)
	// Closing pending after the terminal error is queued hands every
	// subsequent Next the stored error (the close is the happens-before
	// edge for p.terminal).
	defer close(p.pending)
	iter := p.next
	for {
		rb, err := p.client.Fetch(ctx, iter, p.rank)
		if err != nil {
			p.terminal = err
			select {
			case <-ctx.Done():
			case p.pending <- fetchResult{nil, err}:
			}
			return
		}
		select {
		case <-ctx.Done():
			p.terminal = ctx.Err()
			return
		case p.pending <- fetchResult{rb, nil}:
		}
		iter++
	}
}

// Next returns the next iteration's batch, typically instantly because
// the producer worked ahead. Once the prefetch loop has died — broken
// producer, cancelled context — Next returns the terminal error on
// every subsequent call rather than blocking forever.
func (p *Prefetcher) Next(ctx context.Context) (*RankBatch, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case r, ok := <-p.pending:
		if !ok {
			if p.terminal != nil {
				return nil, p.terminal
			}
			return nil, errors.New("preprocess: prefetcher closed")
		}
		return r.rb, r.err
	}
}

// Close stops prefetching.
func (p *Prefetcher) Close() {
	p.cancel()
	<-p.done
}
