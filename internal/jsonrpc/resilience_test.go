package jsonrpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// hungHandler accepts requests but never answers: the peer stays alive
// on the wire while every call it issued hangs.
func hungHandler(block chan struct{}) Handler {
	return HandlerFunc(func(_ *Conn, method string, params json.RawMessage) (any, *RPCError) {
		<-block
		return "late", nil
	})
}

func (c *Conn) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

func TestCallTimeoutAgainstHungPeer(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	ca, _ := pipePair(t, nil, hungHandler(block))
	start := time.Now()
	err := ca.CallTimeout("slow", nil, nil, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("CallTimeout = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	if n := ca.pendingCount(); n != 0 {
		t.Fatalf("pending map holds %d entries after timeout, want 0", n)
	}
}

func TestCallTimeoutPendingMapDoesNotGrow(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	ca, _ := pipePair(t, nil, hungHandler(block))
	for i := 0; i < 20; i++ {
		if err := ca.CallTimeout("slow", nil, nil, time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("call %d: %v, want ErrTimeout", i, err)
		}
	}
	if n := ca.pendingCount(); n != 0 {
		t.Fatalf("pending map grew to %d entries across timed-out calls", n)
	}
}

func TestSetCallTimeoutAppliesToCall(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	ca, _ := pipePair(t, nil, hungHandler(block))
	ca.SetCallTimeout(20 * time.Millisecond)
	if err := ca.Call("slow", nil, nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Call with default timeout = %v, want ErrTimeout", err)
	}
}

func TestConnUsableAfterTimeout(t *testing.T) {
	block := make(chan struct{})
	h := HandlerFunc(func(_ *Conn, method string, params json.RawMessage) (any, *RPCError) {
		if method == "slow" {
			<-block
		}
		return "ok", nil
	})
	ca, _ := pipePair(t, nil, h)
	if err := ca.CallTimeout("slow", nil, nil, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("slow call = %v, want ErrTimeout", err)
	}
	// Release the peer: its late reply to "slow" must be discarded (the
	// pending entry is gone) and the connection must keep working.
	close(block)
	var out string
	if err := ca.CallTimeout("fast", nil, &out, 2*time.Second); err != nil || out != "ok" {
		t.Fatalf("call after timeout = %q, %v", out, err)
	}
}

func TestKeepaliveFailsUnresponsiveConn(t *testing.T) {
	// The peer's read loop stalls inside a handler that never returns, so
	// it never reaches our echo requests (which it would answer itself):
	// heartbeats miss and the connection must fail within a few intervals.
	block := make(chan struct{})
	defer close(block)
	ca, _ := pipePair(t, nil, hungHandler(block))
	if err := ca.Notify("hang", nil); err != nil {
		t.Fatal(err)
	}
	ca.StartKeepalive(20 * time.Millisecond)
	select {
	case <-ca.Done():
		if !errors.Is(ca.Err(), ErrKeepalive) {
			t.Fatalf("Err() = %v, want ErrKeepalive", ca.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("keepalive never failed the hung connection")
	}
}

func TestKeepaliveKeepsHealthyConnAlive(t *testing.T) {
	ca, _ := pipePair(t, nil, echoHandler())
	ca.StartKeepalive(10 * time.Millisecond)
	select {
	case <-ca.Done():
		t.Fatalf("healthy connection failed: %v", ca.Err())
	case <-time.After(150 * time.Millisecond):
	}
	ca.StopKeepalive()
}

// blockableRWC is a stream whose Read blocks until eof is signalled
// (then returns io.EOF) and whose writes land in a buffer.
type blockableRWC struct {
	mu  sync.Mutex
	buf bytes.Buffer
	eof chan struct{}
}

func (b *blockableRWC) Read(p []byte) (int, error) {
	<-b.eof
	return 0, io.EOF
}

func (b *blockableRWC) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *blockableRWC) Close() error { return nil }

func (b *blockableRWC) contents() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestWriteLoopDrainsAcceptedOnDone pins the interleaving behind the
// historical silent-drop bug: a send whose accept check passed races
// read-side EOF, and the writer wakes on done with the acknowledged
// message still queued. Holding writeMu from the test stalls the sender
// between its accept check and its enqueue, making the interleaving
// deterministic: pre-fix the writer exited on done and the accepted
// notification vanished; post-fix the accept check and enqueue are
// atomic against fail(), so the drain pass always sees the message.
func TestWriteLoopDrainsAcceptedOnDone(t *testing.T) {
	rwc := &blockableRWC{eof: make(chan struct{})}
	c := NewConn(rwc, nil)
	time.Sleep(2 * time.Millisecond) // let the writer park in its select

	c.writeMu.Lock()
	errCh := make(chan error, 1)
	go func() { errCh <- c.Notify("probe", nil) }()
	time.Sleep(2 * time.Millisecond) // sender now blocked on writeMu
	go close(rwc.eof)                // read loop fails with EOF → fail() runs
	time.Sleep(2 * time.Millisecond)
	c.writeMu.Unlock()

	err := <-errCh
	<-c.Done()
	if err != nil {
		t.Skip("send observed the failure; nothing was acknowledged")
	}
	// Accepted ⇒ must reach the stream, even though done closed during
	// the race. The writer drains asynchronously; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for !bytes.Contains([]byte(rwc.contents()), []byte(`"probe"`)) {
		if time.Now().After(deadline) {
			t.Fatalf("accepted notification never written; wire=%q", rwc.contents())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitGoroutines polls until the goroutine count drops back to within
// slack of base, tolerating runtime background churn.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > base %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestConnGoroutinesTerminateOnClose(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		a, b := net.Pipe()
		ca := NewConn(a, echoHandler())
		cb := NewConn(b, echoHandler())
		ca.StartKeepalive(time.Millisecond)
		var out string
		if err := ca.CallTimeout("echo", "x", &out, time.Second); err != nil {
			t.Fatalf("call: %v", err)
		}
		ca.Close()
		cb.Close()
	}
	waitGoroutines(t, base)
}

func TestConnGoroutinesTerminateOnPeerFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		a, b := net.Pipe()
		ca := NewConn(a, nil)
		ca.StartKeepalive(time.Millisecond)
		b.Close() // remote failure, not local Close
		<-ca.Done()
	}
	waitGoroutines(t, base)
}
