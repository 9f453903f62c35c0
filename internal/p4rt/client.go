package p4rt

import (
	"encoding/json"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/jsonrpc"
	"repro/internal/obs"
	"repro/internal/p4"
)

// Client is the controller side of the p4rt protocol.
type Client struct {
	conn *jsonrpc.Conn

	mu         sync.Mutex
	onDigest   func(DigestList)
	onPacketIn func(PacketIn)
	autoAck    bool

	// Write-path instruments (nil-safe; zero overhead when unset).
	mWriteSecs    *obs.Histogram
	mWrites       *obs.Counter
	mWriteErrors  *obs.Counter
	mInflight     *obs.Gauge
	mWriteUpdates *obs.Histogram
	rec           *obs.Recorder
	target        string
	obsOn         bool
}

// Dial connects to a p4rt server over TCP.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established byte stream.
func NewClient(rwc io.ReadWriteCloser) *Client {
	c := &Client{autoAck: true}
	c.conn = jsonrpc.NewConn(rwc, jsonrpc.HandlerFunc(c.handle))
	return c
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Done is closed when the connection fails or is closed.
func (c *Client) Done() <-chan struct{} { return c.conn.Done() }

// OnDigest installs the digest stream handler. Unless auto-acking is
// disabled, each list is acknowledged after the handler returns.
func (c *Client) OnDigest(f func(DigestList)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onDigest = f
}

// OnPacketIn installs the packet-in handler.
func (c *Client) OnPacketIn(f func(PacketIn)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onPacketIn = f
}

// SetAutoAck controls automatic digest acknowledgement (default on).
func (c *Client) SetAutoAck(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.autoAck = on
}

func (c *Client) handle(_ *jsonrpc.Conn, method string, params json.RawMessage) (any, *jsonrpc.RPCError) {
	switch method {
	case "digest":
		dl, err := parseDigest(params)
		if err != nil {
			return nil, &jsonrpc.RPCError{Code: "bad params", Details: err.Error()}
		}
		c.mu.Lock()
		handler := c.onDigest
		ack := c.autoAck
		c.mu.Unlock()
		c.rec.Append(obs.Ev("p4rt", "digest.recv").WithTxn(dl.Txn).WithDevice(c.target).
			F("list_id", int64(dl.ListID)).
			F("messages", int64(len(dl.Messages))))
		if handler != nil {
			handler(dl)
		}
		if ack {
			if err := c.conn.Notify("digest_ack", dl.ListID); err != nil {
				// The list was handled and only its ack is lost: the
				// switch does not retransmit unacknowledged lists. Surface
				// the failed write so operators can see acks going missing.
				c.mWriteErrors.Inc()
				c.rec.Append(obs.Ev("p4rt", "digest.ack_failed").WithDevice(c.target).
					F("list_id", int64(dl.ListID)))
			}
		}
		return nil, nil
	case "packet_in":
		var pi PacketIn
		if err := json.Unmarshal(params, &pi); err != nil {
			return nil, &jsonrpc.RPCError{Code: "bad params", Details: err.Error()}
		}
		c.mu.Lock()
		handler := c.onPacketIn
		c.mu.Unlock()
		if handler != nil {
			handler(pi)
		}
		return nil, nil
	default:
		return nil, &jsonrpc.RPCError{Code: "unknown method", Details: method}
	}
}

// GetP4Info fetches the running pipeline's description.
func (c *Client) GetP4Info() (*p4.P4Info, error) {
	var info p4.P4Info
	if err := c.conn.Call("get_p4info", []any{}, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// SetObs registers the client's write-path metrics in o's registry,
// labelled with target (the device this client controls), and attaches
// the flight recorder. Call before issuing writes; a nil observer
// leaves the client uninstrumented.
func (c *Client) SetObs(o *obs.Observer, target string) {
	reg := o.Reg()
	if reg == nil {
		return
	}
	c.rec = o.Rec()
	c.target = target
	lbl := obs.L("target", target)
	c.mWriteSecs = reg.Histogram("p4rt_write_seconds",
		"Write RPC latency.", nil, lbl)
	c.mWrites = reg.Counter("p4rt_writes_total",
		"Write RPCs issued.", lbl)
	c.mWriteErrors = reg.Counter("p4rt_write_errors_total",
		"Write RPCs that failed.", lbl)
	c.mInflight = reg.Gauge("p4rt_writes_inflight",
		"Write RPCs currently awaiting a response.", lbl)
	c.mWriteUpdates = reg.Histogram("p4rt_write_updates",
		"Updates per write RPC.", obs.SizeBuckets, lbl)
	c.obsOn = true
}

// Write applies updates atomically on the device.
func (c *Client) Write(updates ...Update) error {
	return c.WriteTxn(0, updates...)
}

// WriteTxn is Write with the originating management-plane transaction
// attached as optional wire metadata, so the device can extend the
// transaction's trace with a switch-applied stage. A zero txn is left
// off the wire.
func (c *Client) WriteTxn(txn uint64, updates ...Update) error {
	params := WriteRequest{Txn: txn, Updates: updates}
	// The reply to a successful write is an empty object; nothing to decode.
	if !c.obsOn {
		return c.conn.Call("write", params, nil)
	}
	c.mInflight.Add(1)
	t0 := time.Now()
	err := c.conn.Call("write", params, nil)
	c.mWriteSecs.ObserveDuration(time.Since(t0))
	c.mInflight.Add(-1)
	c.mWrites.Inc()
	c.mWriteUpdates.Observe(float64(len(updates)))
	if err != nil {
		c.mWriteErrors.Inc()
	}
	return err
}

// ReadTable snapshots a table's entries.
func (c *Client) ReadTable(table string) ([]TableEntry, error) {
	var entries []TableEntry
	if err := c.conn.Call("read", table, &entries); err != nil {
		return nil, err
	}
	return entries, nil
}

// PacketOut injects a packet on a port.
func (c *Client) PacketOut(port uint16, data []byte) error {
	var out map[string]any
	return c.conn.Call("packet_out", PacketOut{Port: port, Data: data}, &out)
}

// ReadCounters reads a table's hit/miss counters.
func (c *Client) ReadCounters(table string) (p4.TableCounters, error) {
	var out p4.TableCounters
	if err := c.conn.Call("read_counters", table, &out); err != nil {
		return out, err
	}
	return out, nil
}

// AckDigest acknowledges a digest list explicitly (with auto-ack off).
func (c *Client) AckDigest(listID uint64) error {
	return c.conn.Notify("digest_ack", listID)
}

// Echo round-trips a keepalive probe.
func (c *Client) Echo() error {
	var out any
	return c.conn.Call("echo", []any{"ping"}, &out)
}

// SetCallTimeout bounds every RPC issued on this connection (0 = none).
func (c *Client) SetCallTimeout(d time.Duration) { c.conn.SetCallTimeout(d) }

// StartKeepalive begins echo heartbeats on the connection (see
// jsonrpc.Conn.StartKeepalive).
func (c *Client) StartKeepalive(interval time.Duration) {
	c.conn.StartKeepalive(interval)
}
