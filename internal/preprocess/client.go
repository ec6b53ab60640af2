package preprocess

import (
	"bufio"
	"context"
	"encoding/binary"
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

// FetchTenant requests one (tenant, iteration, rank) batch split
// across dp data-parallel ranks. Requests on one client are
// serialised under the client's round-trip deadline; use one client
// per consumer connection.
func (c *Client) FetchTenant(ctx context.Context, tenant uint32, dp int, iter int64, rank int) (*RankBatch, error) {
	req := make([]byte, 0, 21)
	req = append(req, opFetchTenant)
	req = binary.BigEndian.AppendUint32(req, tenant)
	req = binary.BigEndian.AppendUint32(req, uint32(dp))
	req = binary.BigEndian.AppendUint64(req, uint64(iter))
	req = binary.BigEndian.AppendUint32(req, uint32(rank))

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
