package subscribe

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/jsonrpc"
	"repro/internal/wirejson"
)

// Client is the subscriber side of the wire protocol: it demultiplexes
// "sub_update"/"sub_evicted" notifications onto per-subscription
// channels. One Client may hold many subscriptions on one connection.
// It names each subscription itself and registers it before asking the
// server for it, so every notification finds its subscription.
type Client struct {
	conn *jsonrpc.Conn

	// subMu makes taking an id and sending its request one step: the
	// server accepts ids in increasing order only, so concurrent
	// Subscribe calls go out, and are answered, one at a time.
	subMu sync.Mutex

	mu     sync.Mutex
	subs   map[uint64]*Subscription
	lastID uint64
	bufLen int
	closed bool
}

// reasonUndecodable is why the client ends a subscription whose stream
// has a gap: an update on it did not decode.
const reasonUndecodable = "undecodable update; resubscribe"

// Update is one delta on a subscription stream, attributed with the
// transaction that produced it. The server sends a delta once to all of
// a connection's subscriptions with the same relation and filter, and
// the client hands every one of them the same Update: its Changes, rows
// included, are shared and must be treated as read-only.
type Update struct {
	Txn     uint64
	Changes []Change
}

// Subscription is one live relation subscription.
type Subscription struct {
	ID       uint64
	Relation string
	// Txn is the snapshot cursor: the last transaction the snapshot
	// reflects (0 before any). An update a commit produced carries a later
	// transaction; one no commit produced carries 0 — a data-plane
	// digest's (MAC learning), or the controller's initial sync or
	// reconciliation of a fallback snapshot.
	Txn uint64
	// Rows is the initial snapshot (weights all positive).
	Rows []Change
	// Updates delivers deltas in publish order. It closes when the
	// subscription ends — server eviction (check Evicted), explicit
	// Unsubscribe, or connection teardown.
	Updates <-chan Update

	c    *Client
	ch   chan Update
	done chan struct{}

	mu      sync.Mutex
	closed  bool
	evicted bool
	reason  string
	senders sync.WaitGroup
}

// updatesBuffer is the default per-subscription channel capacity. A
// consumer that falls further behind than this blocks the connection's
// read loop — which stalls TCP and eventually triggers the server-side
// eviction path, exactly the backpressure story the service documents.
const updatesBuffer = 1024

// Dial connects to a subscription service address.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established stream (tests use net.Pipe).
func NewClient(rwc io.ReadWriteCloser) *Client {
	c := &Client{subs: make(map[uint64]*Subscription)}
	conn := jsonrpc.NewConnPending(rwc)
	conn.Start(jsonrpc.HandlerFunc(c.handle))
	c.conn = conn
	go func() {
		<-conn.Done()
		c.teardown()
	}()
	return c
}

// SetUpdatesBuffer overrides the per-subscription Updates channel
// capacity for subscriptions opened after the call; n <= 0 restores the
// default. Large fan-out harnesses shrink it to keep 10k+ subscriptions
// memory-light.
func (c *Client) SetUpdatesBuffer(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bufLen = n
}

// Conn exposes the underlying JSON-RPC connection (keepalive, Err).
func (c *Client) Conn() *jsonrpc.Conn { return c.conn }

// Done closes when the connection fails or is closed.
func (c *Client) Done() <-chan struct{} { return c.conn.Done() }

// Close tears the connection down; all subscription channels close.
func (c *Client) Close() error { return c.conn.Close() }

// Subscribe opens a subscription. filter optionally restricts the
// stream to rows whose column (by index) equals the given scalar. The
// subscription is registered under a fresh id before the request goes
// out, so it receives whatever the server sends under that id. It is
// safe for concurrent use.
func (c *Client) Subscribe(relation string, filter map[int]any) (*Subscription, error) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("subscribe: connection closed")
	}
	c.lastID++
	buf := c.bufLen
	if buf <= 0 {
		buf = updatesBuffer
	}
	sub := &Subscription{ID: c.lastID, c: c, ch: make(chan Update, buf), done: make(chan struct{})}
	sub.Updates = sub.ch
	c.subs[sub.ID] = sub
	c.mu.Unlock()

	params := []any{sub.ID, relation}
	if len(filter) > 0 {
		wire := make(map[string]any, len(filter))
		for idx, v := range filter {
			wire[fmt.Sprintf("%d", idx)] = v
		}
		params = append(params, map[string]any{"filter": wire})
	}
	var res subscribeReply
	if err := c.conn.Call("subscribe", params, &res); err != nil {
		c.dropSub(sub.ID)
		sub.close(false, "")
		return nil, err
	}
	sub.Relation, sub.Txn, sub.Rows = res.relation, res.txn, res.rows
	return sub, nil
}

// endSub ends a subscription whose stream has a gap and is therefore
// unusable: it is surfaced as an eviction, the server is told to drop
// it, and the caller's recovery is a fresh Subscribe.
func (c *Client) endSub(id uint64, reason string) {
	if sub := c.dropSub(id); sub != nil {
		go c.conn.Call("unsubscribe", []uint64{id}, nil)
		sub.close(true, reason)
	}
}

// Relations asks the server for its subscribable relation names.
func (c *Client) Relations() ([]string, error) {
	var res struct {
		Relations []string `json:"relations"`
	}
	if err := c.conn.Call("relations", []any{}, &res); err != nil {
		return nil, err
	}
	return res.Relations, nil
}

// Unsubscribe ends the subscription; its Updates channel closes. Local
// teardown happens first so a read loop blocked on this subscription's
// backpressure cannot deadlock the server round trip.
func (s *Subscription) Unsubscribe() error {
	s.c.dropSub(s.ID)
	s.close(false, "")
	return s.c.conn.Call("unsubscribe", []uint64{s.ID}, nil)
}

// Evicted reports whether the subscription ended with a server-side
// eviction (slow consumer), and why. Meaningful once Updates closes;
// the recovery path is a fresh Subscribe.
func (s *Subscription) Evicted() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted, s.reason
}

// send delivers one update, blocking for backpressure but yielding if
// the subscription closes underneath.
func (s *Subscription) send(u Update) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.senders.Add(1)
	s.mu.Unlock()
	select {
	case s.ch <- u:
	case <-s.done:
	}
	s.senders.Done()
}

// close ends the subscription: in-flight sends are released, then the
// Updates channel closes (from a helper goroutine, after the last
// sender leaves — nobody ever sends on a closed channel).
func (s *Subscription) close(evicted bool, reason string) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.evicted = evicted
	s.reason = reason
	s.mu.Unlock()
	close(s.done)
	go func() {
		s.senders.Wait()
		close(s.ch)
	}()
}

// dropSub unregisters a subscription id (never reused: the client names
// subscriptions from a counter, and the server refuses an id that does
// not exceed the connection's last one).
func (c *Client) dropSub(id uint64) *Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	sub := c.subs[id]
	delete(c.subs, id)
	return sub
}

// handle dispatches server notifications.
func (c *Client) handle(_ *jsonrpc.Conn, method string, params json.RawMessage) (any, *jsonrpc.RPCError) {
	switch method {
	case "sub_update":
		ids, u, err := parseUpdate(params)
		if err != nil {
			// A notification's error reaches nobody, and the streams it
			// belonged to now have a gap: end those subscriptions, or the
			// connection when the update does not even say whose it is.
			if ids = updateSubs(params); len(ids) == 0 {
				c.conn.Close()
			}
			for _, id := range ids {
				c.endSub(id, reasonUndecodable)
			}
			return nil, &jsonrpc.RPCError{Code: "bad update", Details: err.Error()}
		}
		for _, id := range ids {
			c.dispatch(id, u)
		}
		return nil, nil
	case "sub_evicted":
		var msgs []evictMsg
		if err := json.Unmarshal(params, &msgs); err != nil || len(msgs) != 1 {
			return nil, &jsonrpc.RPCError{Code: "bad eviction"}
		}
		if sub := c.dropSub(msgs[0].Sub); sub != nil {
			sub.close(true, msgs[0].Reason)
		}
		return nil, nil
	default:
		return nil, &jsonrpc.RPCError{Code: "unknown method", Details: method}
	}
}

// dispatch routes one update to its subscription; an update for an id
// with none (unsubscribed or ended) is dropped. The send may block on a
// full channel: that stalls the read loop and lets server-side eviction
// handle the truly slow consumer.
func (c *Client) dispatch(id uint64, u Update) {
	c.mu.Lock()
	sub := c.subs[id]
	c.mu.Unlock()
	if sub != nil {
		sub.send(u)
	}
}

// teardown closes every subscription after connection failure.
func (c *Client) teardown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	subs := c.subs
	c.subs = make(map[uint64]*Subscription)
	c.mu.Unlock()
	for _, sub := range subs {
		sub.close(false, "")
	}
}

// subscribeReply decodes the "subscribe" result as json.Unmarshal would
// into {"relation","txn","rows"}.
type subscribeReply struct {
	relation string
	txn      uint64
	rows     []Change
}

func (r *subscribeReply) ParseJSON(data []byte) error {
	var d wirejson.Dec
	d.Init(data)
	if !d.Null() && d.Object() {
		for k := d.Key(); k != nil; k = d.Key() {
			switch wirejson.Field(k, "relation", "txn", "rows") {
			case 0:
				d.String(&r.relation)
			case 1:
				wirejson.Uint(&d, &r.txn)
			case 2:
				wirejson.Slice(&d, &r.rows, parseChange)
			default:
				d.Skip()
			}
		}
	}
	if err := d.End(); err != nil {
		return fmt.Errorf("subscribe: bad reply: %w", err)
	}
	return nil
}

// parseUpdate decodes "sub_update" params as json.Unmarshal would into
// a list of {"subs","txn","changes"} messages, and requires exactly one.
func parseUpdate(params []byte) (ids []uint64, u Update, err error) {
	var d wirejson.Dec
	d.Init(params)
	n := 0
	if !d.Null() && d.Array() {
		for ; d.Elem(); n++ {
			if n > 0 {
				d.Skip() // a second message fails the update anyway
				continue
			}
			if d.Null() || !d.Object() {
				continue
			}
			for k := d.Key(); k != nil; k = d.Key() {
				switch wirejson.Field(k, "subs", "txn", "changes") {
				case 0:
					wirejson.Slice(&d, &ids, wirejson.Uint[uint64])
				case 1:
					wirejson.Uint(&d, &u.Txn)
				case 2:
					wirejson.Slice(&d, &u.Changes, parseChange)
				default:
					d.Skip()
				}
			}
		}
	}
	if err = d.End(); err == nil && n != 1 {
		err = fmt.Errorf("sub_update carries %d messages, want 1", n)
	}
	return ids, u, err
}

// updateSubs recovers whose an undecodable "sub_update" is: the first
// message's "subs", if the params parse that far (nil if they do not).
func updateSubs(params []byte) (ids []uint64) {
	var d wirejson.Dec
	d.Init(params)
	if d.Array() && d.Elem() && d.Object() {
		for k := d.Key(); k != nil; k = d.Key() {
			if wirejson.Field(k, "subs", "txn", "changes") != 0 {
				d.Skip()
				continue
			}
			if wirejson.Slice(&d, &ids, wirejson.Uint[uint64]); d.Err() != nil {
				return nil
			}
		}
	}
	return ids
}

// parseChange decodes one {"row":[…],"w":n} over *c, as json.Unmarshal
// decodes a slice element.
func parseChange(d *wirejson.Dec, c *Change) {
	if d.Null() || !d.Object() {
		return
	}
	for k := d.Key(); k != nil; k = d.Key() {
		switch wirejson.Field(k, "row", "w") {
		case 0:
			wirejson.Slice(d, &c.Row, func(d *wirejson.Dec, v *any) { *v = d.Any() })
		case 1:
			wirejson.Int(d, &c.W)
		default:
			d.Skip()
		}
	}
}
