package jsonrpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// pipePair returns two connected Conns over an in-memory duplex pipe.
func pipePair(t *testing.T, hA, hB Handler) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca := NewConn(a, hA)
	cb := NewConn(b, hB)
	t.Cleanup(func() {
		ca.Close()
		cb.Close()
	})
	return ca, cb
}

func echoHandler() Handler {
	return HandlerFunc(func(_ *Conn, method string, params json.RawMessage) (any, *RPCError) {
		switch method {
		case "mirror": // "echo" itself never reaches a handler
			var v any
			if err := json.Unmarshal(params, &v); err != nil {
				return nil, &RPCError{Code: "bad params"}
			}
			return v, nil
		case "fail":
			return nil, &RPCError{Code: "boom", Details: "requested failure"}
		default:
			return nil, &RPCError{Code: "unknown method", Details: method}
		}
	})
}

func TestCallRoundTrip(t *testing.T) {
	ca, _ := pipePair(t, nil, echoHandler())
	var got []string
	if err := ca.Call("mirror", []string{"hello", "world"}, &got); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if len(got) != 2 || got[0] != "hello" {
		t.Errorf("mirror result = %v", got)
	}
}

func TestCallError(t *testing.T) {
	ca, _ := pipePair(t, nil, echoHandler())
	err := ca.Call("fail", nil, nil)
	rpcErr, ok := err.(*RPCError)
	if !ok || rpcErr.Code != "boom" {
		t.Fatalf("Call error = %v, want RPCError boom", err)
	}
	if !strings.Contains(rpcErr.Error(), "requested failure") {
		t.Errorf("error text = %q", rpcErr.Error())
	}
}

func TestUnknownMethod(t *testing.T) {
	ca, _ := pipePair(t, nil, echoHandler())
	if err := ca.Call("nope", nil, nil); err == nil {
		t.Fatalf("unknown method succeeded")
	}
}

func TestNotify(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	h := HandlerFunc(func(_ *Conn, method string, params json.RawMessage) (any, *RPCError) {
		mu.Lock()
		seen = append(seen, method)
		mu.Unlock()
		return nil, nil
	})
	ca, _ := pipePair(t, nil, h)
	if err := ca.Notify("update", map[string]int{"x": 1}); err != nil {
		t.Fatalf("Notify: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("notification never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBidirectionalCalls(t *testing.T) {
	ca, cb := pipePair(t, echoHandler(), echoHandler())
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for i := 0; i < 20; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			var out string
			errs <- ca.Call("echo", "ping", &out)
		}()
		go func() {
			defer wg.Done()
			var out string
			errs <- cb.Call("echo", "pong", &out)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent call failed: %v", err)
		}
	}
}

func TestCloseFailsPending(t *testing.T) {
	block := make(chan struct{})
	h := HandlerFunc(func(_ *Conn, method string, params json.RawMessage) (any, *RPCError) {
		<-block
		return nil, nil
	})
	ca, _ := pipePair(t, nil, h)
	done := make(chan error, 1)
	go func() { done <- ca.Call("slow", nil, nil) }()
	time.Sleep(10 * time.Millisecond)
	ca.Close()
	close(block)
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("pending call survived Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("pending call hung after Close")
	}
}

func TestMalformedStreamFailsConn(t *testing.T) {
	a, b := net.Pipe()
	ca := NewConn(a, nil)
	defer ca.Close()
	go b.Write([]byte("this is not json"))
	select {
	case <-ca.Done():
		if ca.Err() == nil {
			t.Fatalf("Err() nil after malformed input")
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("connection did not fail on malformed input")
	}
}

func TestWriteLimitFailsSlowPeer(t *testing.T) {
	// A peer that never reads must not grow the write queue without
	// bound: once the cap is hit, the connection fails.
	a, b := net.Pipe()
	defer b.Close()
	ca := NewConn(a, nil)
	defer ca.Close()
	ca.SetWriteLimit(8)
	var overflow error
	for i := 0; i < 100; i++ {
		if err := ca.Notify("update", []int{i}); err != nil {
			overflow = err
			break
		}
	}
	if !errors.Is(overflow, ErrWriteOverflow) {
		t.Fatalf("send against a stalled peer returned %v, want ErrWriteOverflow", overflow)
	}
	select {
	case <-ca.Done():
	case <-time.After(2 * time.Second):
		t.Fatalf("connection did not fail after write-queue overflow")
	}
	if err := ca.Err(); !errors.Is(err, ErrWriteOverflow) {
		t.Errorf("Err() = %v, want ErrWriteOverflow", err)
	}
	if got := ca.WriteOverflows(); got == 0 {
		t.Errorf("WriteOverflows() = 0, want > 0")
	}
}

func TestCloseFlushesAcceptedMessages(t *testing.T) {
	// Every message accepted by send before Close must reach the peer:
	// Close may not race the write loop's drain pass by closing the
	// stream under it.
	const n = 50
	for round := 0; round < 20; round++ {
		a, b := net.Pipe()
		ca := NewConn(a, nil)
		got := make(chan int, 1)
		go func() {
			dec := json.NewDecoder(b)
			count := 0
			for {
				var v any
				if dec.Decode(&v) != nil {
					got <- count
					return
				}
				count++
			}
		}()
		for i := 0; i < n; i++ {
			if err := ca.Notify("update", []int{i}); err != nil {
				t.Fatalf("round %d: send %d: %v", round, i, err)
			}
		}
		ca.Close()
		select {
		case count := <-got:
			if count != n {
				t.Fatalf("round %d: peer received %d of %d accepted messages", round, count, n)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: peer never saw the stream close", round)
		}
		b.Close()
	}
}

func TestConcatenatedMessages(t *testing.T) {
	// Two notifications in one write must both be dispatched (the OVSDB
	// wire format is concatenated JSON values, not newline-delimited).
	var mu sync.Mutex
	count := 0
	h := HandlerFunc(func(_ *Conn, method string, params json.RawMessage) (any, *RPCError) {
		mu.Lock()
		count++
		mu.Unlock()
		return nil, nil
	})
	a, b := net.Pipe()
	ca := NewConn(a, h)
	defer ca.Close()
	go b.Write([]byte(`{"method":"m","params":[],"id":null}{"method":"m","params":[],"id":null}`))
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := count
		mu.Unlock()
		if n == 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d messages, want 2", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// afterReply is a result that, once its reply is queued, sends the
// notification "after" carrying the same number.
type afterReply struct {
	c *Conn
	n int
}

func (r afterReply) AppendJSON(dst []byte) ([]byte, error) {
	return strconv.AppendInt(dst, int64(r.n), 10), nil
}

func (r afterReply) AfterReply() { r.c.Notify("after", []int{r.n}) }

// TestAfterReplyFollowsReply: the notification a result's AfterReply
// sends reaches the peer after that result's reply, for every one of a
// pipelined run of requests.
func TestAfterReplyFollowsReply(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	c := NewConn(b, HandlerFunc(func(c *Conn, _ string, params json.RawMessage) (any, *RPCError) {
		var n []int
		if err := json.Unmarshal(params, &n); err != nil || len(n) != 1 {
			return nil, &RPCError{Code: "bad params"}
		}
		return afterReply{c, n[0]}, nil
	}))
	defer c.Close()
	a.SetDeadline(time.Now().Add(10 * time.Second))
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			fmt.Fprintf(a, `{"id":%d,"method":"req","params":[%d]}`, i, i)
		}
	}()
	dec := json.NewDecoder(a)
	replied := make(map[int]bool)
	notified := 0
	for len(replied) < n || notified < n {
		var m struct {
			ID     *int
			Method string
			Params []int
			Result int
		}
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("after %d replies and %d notifications: %v", len(replied), notified, err)
		}
		switch {
		case m.ID != nil:
			if *m.ID != m.Result {
				t.Fatalf("reply to %d carries %d", *m.ID, m.Result)
			}
			replied[*m.ID] = true
		case m.Method == "after" && len(m.Params) == 1:
			if !replied[m.Params[0]] {
				t.Fatalf("notification for %d read before its reply", m.Params[0])
			}
			notified++
		default:
			t.Fatalf("unexpected message %+v", m)
		}
	}
}

// TestWaitQueueBelowWakesOnDrain: a waiter parked above the limit stays
// parked while the peer reads nothing, and wakes once the writer hands
// the queue to the stream — on the writer's drain, with no timer. A
// waiter parked on a connection that then fails reports false.
func TestWaitQueueBelowWakesOnDrain(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	c := NewConn(a, nil)
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.Notify("update", []int{i}); err != nil {
			t.Fatal(err)
		}
	}
	// The writer holds the first message in a Write the peer does not
	// read, so the queue stays at 3.
	if !c.WaitQueueBelow(4) {
		t.Fatalf("WaitQueueBelow(4) with 3 queued reported a failed connection")
	}
	woke := make(chan bool, 1)
	go func() { woke <- c.WaitQueueBelow(1) }()
	waitParked(t, c)
	select {
	case ok := <-woke:
		t.Fatalf("waiter returned %v with %d messages queued and nothing read", ok, c.WriteQueueLen())
	case <-time.After(100 * time.Millisecond):
	}
	go io.Copy(io.Discard, b) // the peer reads: the writer drains
	select {
	case ok := <-woke:
		if !ok || c.WriteQueueLen() != 0 {
			t.Fatalf("waiter returned %v with %d queued, want true with 0", ok, c.WriteQueueLen())
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("waiter still parked after the writer drained the queue")
	}
	if c.drainWaiting.Load() {
		t.Errorf("drain flag still set with nobody waiting")
	}

	// A stalled peer again, and the connection fails under a waiter.
	a, b = net.Pipe()
	defer b.Close()
	c = NewConn(a, nil)
	for i := 0; i < 3; i++ {
		c.Notify("update", []int{i})
	}
	go func() { woke <- c.WaitQueueBelow(1) }()
	waitParked(t, c)
	c.fail(errors.New("test: connection failed"))
	select {
	case ok := <-woke:
		if ok {
			t.Fatalf("waiter on a failed connection returned true")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("waiter still parked after the connection failed")
	}
	if c.WaitQueueBelow(1 << 20) {
		t.Errorf("WaitQueueBelow on a failed connection returned true")
	}
	b.Close() // nobody will read what the failed connection still holds
	c.Close()
}

// waitParked waits until some WaitQueueBelow caller has parked on c's
// next drain.
func waitParked(t *testing.T, c *Conn) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !c.drainWaiting.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}
}
