package subscribe

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/jsonrpc"
)

// Client is the subscriber side of the wire protocol: it demultiplexes
// "sub_update"/"sub_evicted" notifications onto per-subscription
// channels. One Client may hold many subscriptions on one connection.
type Client struct {
	conn *jsonrpc.Conn

	mu   sync.Mutex
	subs map[uint64]*Subscription
	// pending buffers updates for subscription ids whose "subscribe"
	// reply has not been processed yet: delivery goroutines and RPC
	// replies share the connection, so an update can precede the reply
	// that names its id. The window is one write-queue reordering, so
	// the buffer is small and capped. It is filled only while a Subscribe
	// call is in flight (subscribing > 0) and emptied when the last one
	// returns: an unknown id seen at any other time belongs to a
	// subscription that was unsubscribed or evicted, and its updates are
	// dropped.
	pending     map[uint64]*pendingUpdates
	subscribing int
	bufLen      int
	closed      bool
}

// pendingUpdates is the pre-reply buffer for one subscription id.
type pendingUpdates struct {
	ups      []Update
	overflow bool
}

// Update is one delta on a subscription stream, attributed with the
// transaction that produced it.
type Update struct {
	Txn     uint64
	Changes []Change
}

// Subscription is one live relation subscription.
type Subscription struct {
	ID       uint64
	Relation string
	// Txn is the snapshot cursor: every update on Updates carries a
	// transaction at or after it.
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
	c := &Client{
		subs:    make(map[uint64]*Subscription),
		pending: make(map[uint64]*pendingUpdates),
	}
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
// capacity (and the matching pre-reply pending cap) for subscriptions
// opened after the call; n <= 0 restores the default. Large fan-out
// harnesses shrink it to keep 10k+ subscriptions memory-light.
func (c *Client) SetUpdatesBuffer(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bufLen = n
}

// buffer returns the effective Updates channel capacity.
func (c *Client) buffer() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bufLen > 0 {
		return c.bufLen
	}
	return updatesBuffer
}

// Conn exposes the underlying JSON-RPC connection (keepalive, Err).
func (c *Client) Conn() *jsonrpc.Conn { return c.conn }

// Done closes when the connection fails or is closed.
func (c *Client) Done() <-chan struct{} { return c.conn.Done() }

// Close tears the connection down; all subscription channels close.
func (c *Client) Close() error { return c.conn.Close() }

// Subscribe opens a subscription. filter optionally restricts the
// stream to rows whose column (by index) equals the given scalar.
func (c *Client) Subscribe(relation string, filter map[int]any) (*Subscription, error) {
	params := []any{relation}
	if len(filter) > 0 {
		wire := make(map[string]any, len(filter))
		for idx, v := range filter {
			wire[fmt.Sprintf("%d", idx)] = v
		}
		params = append(params, map[string]any{"filter": wire})
	}
	c.mu.Lock()
	c.subscribing++
	c.mu.Unlock()
	var res subscribeResult
	if err := c.conn.Call("subscribe", params, &res); err != nil {
		c.mu.Lock()
		c.subscribeDone()
		c.mu.Unlock()
		return nil, err
	}
	sub := &Subscription{
		ID:       res.Sub,
		Relation: res.Relation,
		Txn:      res.Txn,
		Rows:     res.Rows,
		c:        c,
		ch:       make(chan Update, c.buffer()),
		done:     make(chan struct{}),
	}
	sub.Updates = sub.ch
	c.mu.Lock()
	p := c.pending[sub.ID]
	delete(c.pending, sub.ID)
	c.subscribeDone()
	if c.closed {
		c.mu.Unlock()
		close(sub.ch)
		return nil, errors.New("subscribe: connection closed")
	}
	c.subs[sub.ID] = sub
	if p != nil {
		if len(p.ups) > cap(sub.ch) {
			p.overflow = true
		} else {
			// Replay buffered updates under c.mu so they precede
			// anything the read loop dispatches next; they fit the
			// fresh channel, so the replay cannot block.
			for _, u := range p.ups {
				sub.ch <- u
			}
		}
	}
	c.mu.Unlock()
	if p != nil && p.overflow {
		// Pathological: more updates raced the reply than we buffer.
		// The stream has a gap, so the subscription is unusable —
		// surface it as an eviction and let the caller resubscribe.
		go c.conn.Call("unsubscribe", []uint64{sub.ID}, nil)
		c.dropSub(sub.ID)
		sub.close(true, "client replay buffer overflow; resubscribe")
	}
	return sub, nil
}

// subscribeDone ends one Subscribe call's buffering window; when no
// other call is in flight, whatever is still buffered is for departed
// subscriptions and goes. Called with c.mu held.
func (c *Client) subscribeDone() {
	c.subscribing--
	if c.subscribing == 0 {
		clear(c.pending)
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

// dropSub unregisters a subscription id (id reuse is impossible: the
// server allocates them monotonically per service).
func (c *Client) dropSub(id uint64) *Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	sub := c.subs[id]
	delete(c.subs, id)
	delete(c.pending, id)
	return sub
}

// handle dispatches server notifications.
func (c *Client) handle(_ *jsonrpc.Conn, method string, params json.RawMessage) (any, *jsonrpc.RPCError) {
	switch method {
	case "sub_update":
		var msgs []updateMsg
		if err := json.Unmarshal(params, &msgs); err != nil || len(msgs) != 1 {
			return nil, &jsonrpc.RPCError{Code: "bad update"}
		}
		c.dispatch(msgs[0].Sub, Update{Txn: msgs[0].Txn, Changes: msgs[0].Changes})
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

// dispatch routes one update to its subscription, buffering it when a
// subscribe reply that may name its id is still outstanding. The send
// may block on a full channel: that stalls the read loop and lets
// server-side eviction handle the truly slow consumer.
func (c *Client) dispatch(id uint64, u Update) {
	c.mu.Lock()
	sub := c.subs[id]
	if sub == nil {
		if c.subscribing > 0 && !c.closed {
			p := c.pending[id]
			if p == nil {
				p = &pendingUpdates{}
				c.pending[id] = p
			}
			limit := c.bufLen
			if limit <= 0 {
				limit = updatesBuffer
			}
			if len(p.ups) < limit {
				p.ups = append(p.ups, u)
			} else {
				p.overflow = true
			}
		}
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	sub.send(u)
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
	c.pending = nil
	c.mu.Unlock()
	for _, sub := range subs {
		sub.close(false, "")
	}
}
