// Package jsonrpc implements the JSON-RPC 1.0 peer protocol as used by
// OVSDB (RFC 7047 §4): concatenated JSON messages over a reliable byte
// stream, with requests, notifications (id null), and responses flowing in
// both directions.
package jsonrpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wirejson"
)

func isNull(raw []byte) bool { return string(raw) == "null" }

// emptyArray is the echo reply to a request that carried no params.
var emptyArray = []byte("[]")

// RPCError is a protocol-level error returned by a peer.
type RPCError struct {
	Code    string `json:"error"`
	Details string `json:"details,omitempty"`
}

func (e *RPCError) Error() string {
	if e.Details != "" {
		return fmt.Sprintf("jsonrpc: %s: %s", e.Code, e.Details)
	}
	return "jsonrpc: " + e.Code
}

// Handler serves incoming requests and notifications on a connection,
// except "echo", which the connection answers itself with the request's
// params. Handle runs on the connection's read loop: implementations
// must not block indefinitely. For a notification the result is
// discarded.
//
// params is a sub-slice of the connection's read buffer (nil when the
// message carried none) and is overwritten by the next message: it is
// valid until Handle returns, and whatever must outlive the call has to
// be copied out. If it is an array or an object, only its extent and its
// bracket structure have been checked: decoding it is what checks the
// rest, and a handler that stores or forwards it undecoded has to check
// it (wirejson.Dec.Skip) itself. The result is encoded before Handle's
// caller reads on, so it may alias params. A result implementing
// wirejson.Appender renders itself, a json.RawMessage is checked and
// compacted, anything else goes through encoding/json. A result with an
// AfterReply() method has it called on the read loop once its reply is
// queued (or, for a notification, once Handle returns): a message it
// sends reaches the peer after the reply.
type Handler interface {
	Handle(c *Conn, method string, params json.RawMessage) (result any, err *RPCError)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(c *Conn, method string, params json.RawMessage) (any, *RPCError)

// Handle calls f.
func (f HandlerFunc) Handle(c *Conn, method string, params json.RawMessage) (any, *RPCError) {
	return f(c, method, params)
}

// Conn is a JSON-RPC peer connection. Both sides may issue calls and
// notifications concurrently.
type Conn struct {
	rwc     io.ReadWriteCloser
	handler Handler

	// Writes are decoupled from callers (and from the read loop, which
	// serves handlers) through a queue drained by a writer goroutine, so a
	// slow or synchronous peer never deadlocks request handling. The queue
	// is one buffer of concatenated messages (writeCount of them, nil when
	// there are none), which the writer takes and hands to the stream whole.
	writeMu    sync.Mutex
	writeBuf   *encBuf
	writeCount int
	writeWake  chan struct{}
	writeLimit int
	// writeDone is closed when the write loop exits, so Close can wait
	// for accepted messages to reach the stream before tearing it down.
	writeDone chan struct{}
	started   atomic.Bool
	// queued counts messages accepted by send but not yet handed to the
	// stream (the write-queue depth, including the batch in flight).
	queued atomic.Int64
	// overflowed counts messages rejected by the write-queue cap.
	overflowed atomic.Uint64
	// drainWaiting is set while some WaitQueueBelow caller is parked on
	// drained; the writer wakes it after its next batch. With nobody
	// parked the writer only loads the flag.
	drainWaiting atomic.Bool
	drainMu      sync.Mutex
	drained      chan struct{} // closed by the writer's next drain; nil when nobody waits

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan reply
	closed  bool
	readErr error
	done    chan struct{}

	// callTimeout bounds every Call issued without an explicit deadline
	// (0 = wait forever, the historical behavior).
	callTimeout time.Duration
	// kaStop terminates a running keepalive goroutine (nil when off).
	kaStop chan struct{}
	kaOnce sync.Once
}

// ErrTimeout marks a call that exceeded its deadline while the
// connection stayed open. The pending entry is removed, so a late reply
// is discarded rather than leaked.
var ErrTimeout = errors.New("jsonrpc: call timed out")

// ErrKeepalive marks a connection failed by the echo keepalive after
// missing too many consecutive heartbeats.
var ErrKeepalive = errors.New("jsonrpc: keepalive failed")

// ErrWriteOverflow marks a send rejected, and the connection failed,
// because the write queue reached its configured cap: the peer is not
// draining its read side fast enough. Test with errors.Is.
var ErrWriteOverflow = errors.New("jsonrpc: write queue overflow")

// closeFlushTimeout bounds how long Close waits for the write loop to
// flush accepted messages before closing the stream regardless. A peer
// that has stopped reading would otherwise hang a graceful close
// forever.
const closeFlushTimeout = 2 * time.Second

// NewConn starts a connection over rwc. handler may be nil if the peer
// sends no request but "echo". The read loop runs until the stream fails
// or the connection is closed.
func NewConn(rwc io.ReadWriteCloser, handler Handler) *Conn {
	c := NewConnPending(rwc)
	c.Start(handler)
	return c
}

// NewConnPending creates a connection without starting its loops, letting
// the caller publish the *Conn (e.g. into a handler's state) before any
// request can be dispatched. Call Start to begin processing.
func NewConnPending(rwc io.ReadWriteCloser) *Conn {
	return &Conn{
		rwc:       rwc,
		writeWake: make(chan struct{}, 1),
		writeDone: make(chan struct{}),
		pending:   make(map[uint64]chan reply),
		done:      make(chan struct{}),
	}
}

// Start installs the handler and launches the read and write loops. It
// must be called exactly once on a pending connection.
func (c *Conn) Start(handler Handler) {
	c.handler = handler
	c.started.Store(true)
	go c.readLoop()
	go c.writeLoop()
}

// SetWriteLimit caps the write queue at limit pending messages; an
// overflowing send fails the whole connection with ErrWriteOverflow. A
// peer too slow to drain its socket is treated like a dead one, so the
// sender's memory stays bounded, no message is silently skipped, and the
// peer's reconnect machinery takes over. 0 leaves the queue unbounded.
// Call before the peer can stall; safe to call concurrently with sends.
func (c *Conn) SetWriteLimit(limit int) {
	c.writeMu.Lock()
	c.writeLimit = limit
	c.writeMu.Unlock()
}

// RemoteAddr names the peer when the stream is a network connection
// ("" when it is not).
func (c *Conn) RemoteAddr() string {
	if nc, ok := c.rwc.(net.Conn); ok {
		return nc.RemoteAddr().String()
	}
	return ""
}

// WriteQueueLen reports the messages accepted by send but not yet
// written to the stream (the write-queue depth, including the batch the
// writer currently holds).
func (c *Conn) WriteQueueLen() int { return int(c.queued.Load()) }

// WaitQueueBelow blocks until the write queue holds fewer than n
// messages, parking until the writer hands its next batch to the stream
// rather than polling. It reports false once the connection has failed.
func (c *Conn) WaitQueueBelow(n int) bool {
	for {
		select {
		case <-c.done:
			return false
		default:
		}
		if int(c.queued.Load()) < n {
			return true
		}
		c.drainMu.Lock()
		if c.drained == nil {
			c.drained = make(chan struct{})
		}
		ch := c.drained
		c.drainWaiting.Store(true)
		c.drainMu.Unlock()
		// The writer lowers queued before it loads drainWaiting: either it
		// sees the flag set above, or this load sees its drain.
		if int(c.queued.Load()) < n {
			return true
		}
		select {
		case <-ch:
		case <-c.done:
			return false
		}
	}
}

// wakeDrainWaiters releases every WaitQueueBelow caller parked on the
// batch just written.
func (c *Conn) wakeDrainWaiters() {
	c.drainMu.Lock()
	if c.drained != nil {
		close(c.drained)
		c.drained = nil
	}
	c.drainWaiting.Store(false)
	c.drainMu.Unlock()
}

// WriteOverflows reports how many messages the write-queue cap has
// rejected on this connection.
func (c *Conn) WriteOverflows() uint64 { return c.overflowed.Load() }

// Close tears down the connection and fails all pending calls. Messages
// already accepted by send are flushed to the stream first (bounded by
// closeFlushTimeout, so a peer that stopped reading cannot hang the
// close), preserving send's acceptance guarantee on a graceful close.
func (c *Conn) Close() error {
	c.StopKeepalive()
	c.fail(errors.New("jsonrpc: connection closed"))
	if c.started.Load() {
		// fail() closed done, so the write loop is in (or headed for)
		// its drain-on-done pass; wait for it to hand the queue to the
		// stream before pulling the stream out from under it.
		select {
		case <-c.writeDone:
		case <-time.After(closeFlushTimeout):
		}
	}
	return c.rwc.Close()
}

// SetCallTimeout installs a default deadline applied to every Call that
// does not use CallTimeout explicitly. Zero restores unbounded waits.
// Safe to call concurrently with calls in flight.
func (c *Conn) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	c.callTimeout = d
	c.mu.Unlock()
}

// keepaliveMisses is the number of heartbeats in a row that must fail
// before a connection with a keepalive is failed.
const keepaliveMisses = 3

// StartKeepalive begins an echo-based heartbeat: every interval the
// connection issues an "echo" call bounded by the same interval, and
// after keepaliveMisses consecutive failures the connection is failed
// (Done closes, pending calls error). It must be called at most once;
// the goroutine stops on StopKeepalive, Close, or connection failure.
func (c *Conn) StartKeepalive(interval time.Duration) {
	if interval <= 0 {
		return
	}
	c.mu.Lock()
	if c.kaStop != nil || c.closed {
		c.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	c.kaStop = stop
	c.mu.Unlock()
	go c.keepalive(interval, stop)
}

// StopKeepalive terminates the heartbeat goroutine, if running.
func (c *Conn) StopKeepalive() {
	c.mu.Lock()
	stop := c.kaStop
	c.mu.Unlock()
	if stop != nil {
		c.kaOnce.Do(func() { close(stop) })
	}
}

func (c *Conn) keepalive(interval time.Duration, stop chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	missed := 0
	for {
		select {
		case <-stop:
			return
		case <-c.done:
			return
		case <-t.C:
		}
		var out any
		if err := c.CallTimeout("echo", []any{"keepalive"}, &out, interval); err != nil {
			missed++
			if missed >= keepaliveMisses {
				c.fail(fmt.Errorf("%w: %d heartbeats missed: %v", ErrKeepalive, missed, err))
				c.rwc.Close()
				return
			}
			continue
		}
		missed = 0
	}
}

// Done is closed when the read loop exits.
func (c *Conn) Done() <-chan struct{} { return c.done }

// Err returns the error that terminated the read loop (nil while running).
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

func (c *Conn) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.readErr = err
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	close(c.done)
}

// reply carries a response from the read loop to the waiting Call:
// result and err are the message's members (nil when absent), copied into
// buf, a pooled buffer the receiver hands back with putBuf.
type reply struct {
	buf         *encBuf
	result, err []byte
}

// maxMethods bounds the read loop's method-name intern table.
const maxMethods = 64

func (c *Conn) readLoop() {
	f := framer{r: c.rwc}
	// Method names repeat for a connection's whole life; interning them
	// keeps dispatch from allocating a string per message.
	methods := make(map[string]string)
	var d wirejson.Dec
	for {
		fr, err := f.next()
		if err != nil {
			c.fail(err)
			c.rwc.Close()
			return
		}
		var name []byte
		if fr[mMethod] != nil {
			d.Init(fr[mMethod])
			name, _ = d.StringBytes()
		}
		id := fr[mID]
		if isNull(id) {
			id = nil // a notification, or a response to nobody
		}
		if len(name) == 0 {
			if id != nil {
				c.deliver(&d, id, fr[mResult], fr[mError])
			}
			continue
		}
		method, ok := methods[string(name)]
		if !ok {
			method = string(name)
			if len(methods) < maxMethods {
				methods[method] = method
			}
		}
		c.serve(method, fr[mParams], id)
	}
}

// deliver hands a response to the Call waiting on its id; one nobody
// waits for (never issued, timed out) is dropped.
func (c *Conn) deliver(d *wirejson.Dec, rawID, result, rpcErr []byte) {
	var id uint64
	d.Init(rawID)
	wirejson.Uint(d, &id)
	if d.End() != nil {
		return
	}
	c.mu.Lock()
	ch := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if ch == nil {
		return
	}
	r := reply{buf: getBuf()}
	r.buf.b = append(append(r.buf.b, result...), rpcErr...)
	if result != nil {
		r.result = r.buf.b[:len(result):len(result)]
	}
	if rpcErr != nil {
		r.err = r.buf.b[len(result):]
	}
	ch <- r
}

// serve runs the handler for one request (id non-nil) or notification
// and queues the reply. params and id alias the read buffer.
func (c *Conn) serve(method string, params, id []byte) {
	var result any
	var rpcErr *RPCError
	switch {
	case method == "echo":
		// The heartbeat StartKeepalive sends (RFC 7047 §4.1.11): every
		// connection answers it, whatever its handler.
		if len(params) == 0 || isNull(params) {
			params = emptyArray
		}
		result = json.RawMessage(params)
	case c.handler == nil:
		rpcErr = &RPCError{Code: "unknown method", Details: method}
	default:
		result, rpcErr = c.handler.Handle(c, method, params)
	}
	if id != nil {
		buf := getBuf()
		if err := buf.reply(id, result, rpcErr); err != nil {
			// The peer's Call is waiting on this id: a result that does not
			// encode must still produce a reply, or that wait never ends.
			// (The id, which the framer checked, encodes.)
			buf.b = buf.b[:0]
			buf.reply(id, nil, &RPCError{Code: "internal error", Details: err.Error()})
		}
		c.send(buf) // fails only on a connection that is already going down
	}
	if ar, ok := result.(interface{ AfterReply() }); ok {
		ar.AfterReply()
	}
}

// send queues the message built in msg for the write loop and takes
// ownership of msg, whatever it returns. With nothing queued — the usual
// case — msg becomes the queue; otherwise its bytes are appended.
func (c *Conn) send(msg *encBuf) error {
	// The closed check and the enqueue happen under c.mu together: once a
	// message is accepted here, it was queued strictly before fail() could
	// set closed and signal done, so the writeLoop's drain-on-done pass is
	// guaranteed to see it.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		putBuf(msg)
		return errors.New("jsonrpc: connection closed")
	}
	c.writeMu.Lock()
	if c.writeLimit > 0 && int(c.queued.Load()) >= c.writeLimit {
		limit := c.writeLimit
		c.writeMu.Unlock()
		c.mu.Unlock()
		putBuf(msg)
		c.overflowed.Add(1)
		c.fail(fmt.Errorf("%w: peer left %d messages pending", ErrWriteOverflow, limit))
		c.rwc.Close()
		return fmt.Errorf("%w: %d messages pending, connection failed", ErrWriteOverflow, limit)
	}
	if c.writeBuf == nil {
		c.writeBuf, msg = msg, nil
	} else {
		c.writeBuf.b = append(c.writeBuf.b, msg.b...)
	}
	c.writeCount++
	c.queued.Add(1)
	c.writeMu.Unlock()
	c.mu.Unlock()
	if msg != nil {
		putBuf(msg)
	}
	select {
	case c.writeWake <- struct{}{}:
	default:
	}
	return nil
}

// takeBatch empties the queue.
func (c *Conn) takeBatch() (batch *encBuf, count int) {
	c.writeMu.Lock()
	batch, count = c.writeBuf, c.writeCount
	c.writeBuf, c.writeCount = nil, 0
	c.writeMu.Unlock()
	return batch, count
}

func (c *Conn) writeLoop() {
	defer close(c.writeDone)
	for {
		batch, count := c.takeBatch()
		if count == 0 {
			select {
			case <-c.writeWake:
				continue
			case <-c.done:
				// done may win the select while writeWake is also ready:
				// messages already acknowledged to send() callers can still
				// be sitting in the queue. Drain them before exiting — the
				// stream may be perfectly healthy (e.g. the read side hit
				// EOF first, or Close is flushing), and accepted messages
				// must not vanish.
				if batch, count = c.takeBatch(); count > 0 {
					c.writeBatch(batch, count, false)
				}
				return
			}
		}
		if !c.writeBatch(batch, count, true) {
			return
		}
	}
}

// writeBatch hands one drained batch of count messages to the stream in
// a single Write and recycles its buffer, keeping the queue depth
// current. failConn selects whether a stream error fails the connection
// (the live path) or merely abandons the flush (the drain-on-done pass,
// where the connection is already failed). Reports whether the loop
// should keep running.
func (c *Conn) writeBatch(batch *encBuf, count int, failConn bool) bool {
	_, err := c.rwc.Write(batch.b)
	putBuf(batch)
	c.queued.Add(-int64(count))
	if c.drainWaiting.Load() {
		c.wakeDrainWaiters()
	}
	if err != nil && failConn {
		c.fail(err)
		c.rwc.Close()
	}
	return err == nil
}

// Call issues a request and waits for the matching response, decoding its
// result into result (unless nil). When a default call timeout is set
// (SetCallTimeout), the wait is bounded by it.
func (c *Conn) Call(method string, params any, result any) error {
	c.mu.Lock()
	d := c.callTimeout
	c.mu.Unlock()
	return c.CallTimeout(method, params, result, d)
}

// CallTimeout is Call with an explicit deadline for this request only
// (0 = wait forever). On timeout the pending entry is removed — the map
// does not grow across timed-out calls — and ErrTimeout is returned
// (test with errors.Is) while the connection itself stays usable.
//
// params implementing wirejson.Appender render themselves and a
// json.RawMessage is checked and compacted; a result implementing
// wirejson.Parser parses the reply itself, from bytes that are recycled
// when the call returns. Everything else goes through encoding/json.
func (c *Conn) CallTimeout(method string, params any, result any, timeout time.Duration) error {
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		return fmt.Errorf("jsonrpc: connection closed: %w", err)
	}
	id := c.nextID
	c.nextID++
	ch := make(chan reply, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	buf := getBuf()
	err := buf.request(id, true, method, params)
	if err == nil {
		err = c.send(buf)
	} else {
		putBuf(buf)
	}
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return err
	}
	var r reply
	var ok bool
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case r, ok = <-ch:
		case <-t.C:
			c.mu.Lock()
			_, still := c.pending[id]
			delete(c.pending, id)
			c.mu.Unlock()
			if !still {
				// The entry was already removed by the read loop (response
				// in flight into ch) or by fail() (ch closed): a receive
				// completes promptly either way. Prefer the real outcome
				// over the timeout.
				r, ok = <-ch
			} else {
				return fmt.Errorf("%w: %s after %v", ErrTimeout, method, timeout)
			}
		}
	} else {
		r, ok = <-ch
	}
	if !ok {
		return fmt.Errorf("jsonrpc: connection closed while waiting for %s reply", method)
	}
	// The reply's bytes live in a pooled buffer: every decoder below
	// copies what it keeps.
	defer putBuf(r.buf)
	if r.err != nil && !isNull(r.err) {
		var rpcErr RPCError
		if err := json.Unmarshal(r.err, &rpcErr); err != nil {
			return fmt.Errorf("jsonrpc: %s failed: %s", method, string(r.err))
		}
		return &rpcErr
	}
	if r.result == nil {
		return nil
	}
	// The framer left a result container unchecked for its decoder, which
	// is one of these.
	switch out := result.(type) {
	case wirejson.Parser:
		return out.ParseJSON(r.result)
	case nil, *json.RawMessage:
		var d wirejson.Dec
		d.Init(r.result)
		d.Skip()
		if err := d.End(); err != nil {
			return err
		}
		if raw, _ := out.(*json.RawMessage); raw != nil {
			*raw = append((*raw)[:0], r.result...)
		}
		return nil
	}
	return json.Unmarshal(r.result, result)
}

// Notify sends a notification (no reply expected).
func (c *Conn) Notify(method string, params any) error {
	buf := getBuf()
	if err := buf.request(0, false, method, params); err != nil {
		putBuf(buf)
		return err
	}
	return c.send(buf)
}
