package jsonrpc

import (
	"encoding/json"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
)

// newTestServer returns a Server whose connections have no handler; it
// is closed with the test.
func newTestServer(t *testing.T, writeLimit int) *Server {
	t.Helper()
	s := NewServer(writeLimit, func(*Conn) (Handler, func()) { return nil, nil })
	t.Cleanup(s.Close)
	return s
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitDone(t *testing.T, c *Conn, what string) {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: connection still live", what)
	}
}

func TestServer(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"overflow at the cap fails only that connection", func(t *testing.T) {
			ts := newTestServer(t, 4)
			o := obs.NewObserver()
			ts.SetObs(o, "t")
			overflows := func() float64 {
				return o.Reg().Snapshot()[`jsonrpc_write_overflows_total{server="t"}`]
			}
			a, stalledPeer := net.Pipe() // nobody reads stalledPeer
			defer stalledPeer.Close()
			stalled := ts.ServeConn(a)
			b, peerEnd := net.Pipe()
			healthy := ts.ServeConn(b)
			peer := NewConn(peerEnd, nil)
			defer peer.Close()

			var err error
			for i := 0; i < 100 && err == nil; i++ {
				err = stalled.Notify("update", []int{i})
			}
			if !errors.Is(err, ErrWriteOverflow) {
				t.Fatalf("send to a stalled peer returned %v, want ErrWriteOverflow", err)
			}
			waitDone(t, stalled, "stalled peer")
			waitFor(t, "the failed connection to leave the set", func() bool { return ts.Conns() == 1 })
			// The departed connection's count moved into the base: the
			// series did not fall back to zero with it.
			if got, want := overflows(), float64(stalled.WriteOverflows()); want == 0 || got != want {
				t.Errorf("overflow series = %v after the connection left, want %v", got, want)
			}
			var out []string
			if err := peer.Call("echo", []string{"still here"}, &out); err != nil {
				t.Fatalf("healthy connection failed with its neighbour: %v", err)
			}
			select {
			case <-healthy.Done():
				t.Fatalf("healthy connection closed: %v", healthy.Err())
			default:
			}
		}},
		{"keepalive reaps a half-open peer", func(t *testing.T) {
			accepted := make(chan *Conn, 1)
			ts := NewServer(0, func(c *Conn) (Handler, func()) {
				accepted <- c
				return nil, nil
			})
			defer ts.Close()
			ts.SetKeepalive(10 * time.Millisecond)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go ts.Serve(ln)
			nc, err := faultnet.NewDialer().Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			peer := NewConn(nc, nil)
			defer peer.Close()
			if err := peer.Call("echo", nil, nil); err != nil {
				t.Fatal(err)
			}
			srvConn := <-accepted
			// The peer's host stays up (TCP keeps acknowledging) but the
			// peer itself stops reading: only the heartbeat can tell.
			nc.(*faultnet.Conn).SetDelay(time.Second)
			waitDone(t, srvConn, "half-open peer")
			if !errors.Is(srvConn.Err(), ErrKeepalive) {
				t.Errorf("Err() = %v, want ErrKeepalive", srvConn.Err())
			}
			waitFor(t, "the reaped connection to leave the set", func() bool { return ts.Conns() == 0 })
		}},
		{"Close flushes accepted messages", func(t *testing.T) {
			const n = 50
			for round := 0; round < 20; round++ {
				ts := newTestServer(t, 0)
				a, b := net.Pipe()
				ts.ServeConn(a)
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
					ts.Broadcast("update", []int{i})
				}
				ts.Close()
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
		}},
		{"Broadcast reaches every live connection", func(t *testing.T) {
			ts := newTestServer(t, 0)
			var seen [3]atomic.Int64
			for i := range seen {
				i := i
				a, b := net.Pipe()
				ts.ServeConn(a)
				peer := NewConn(b, HandlerFunc(func(_ *Conn, method string, _ json.RawMessage) (any, *RPCError) {
					if method == "digest" {
						seen[i].Add(1)
					}
					return nil, nil
				}))
				defer peer.Close()
			}
			a, b := net.Pipe()
			ts.ServeConn(a)
			b.Close() // a fourth peer, gone before the broadcast
			waitFor(t, "the departed connection to leave the set", func() bool { return ts.Conns() == 3 })
			ts.Broadcast("digest", []int{1})
			waitFor(t, "every live peer to see the notification", func() bool {
				return seen[0].Load() == 1 && seen[1].Load() == 1 && seen[2].Load() == 1
			})
		}},
		{"echo needs neither a handler nor params", func(t *testing.T) {
			ts := newTestServer(t, 0)
			a, b := net.Pipe()
			ts.ServeConn(a)
			defer b.Close()
			dec := json.NewDecoder(b)
			for _, tc := range []struct{ req, want string }{
				{`{"method":"echo","id":1}`, `[]`},
				{`{"method":"echo","params":null,"id":2}`, `[]`},
				{`{"method":"echo","params":[ "a", {"b": 1} ],"id":3}`, `["a",{"b":1}]`},
			} {
				if _, err := b.Write([]byte(tc.req)); err != nil {
					t.Fatal(err)
				}
				var reply struct {
					Error  json.RawMessage `json:"error"`
					Result json.RawMessage `json:"result"`
				}
				if err := dec.Decode(&reply); err != nil {
					t.Fatalf("%s: %v", tc.req, err)
				}
				if !isNull(reply.Error) || string(reply.Result) != tc.want {
					t.Errorf("%s: result %s, error %s; want result %s", tc.req, reply.Result, reply.Error, tc.want)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestServerCloseRefusesLateAccept: Accept can hand Serve a connection
// while Close is running. Whichever side of Close's snapshot it lands
// on, it must end up closed; registered after the snapshot, it would
// outlive the server.
func TestServerCloseRefusesLateAccept(t *testing.T) {
	for round := 0; round < 50; round++ {
		s := NewServer(0, func(*Conn) (Handler, func()) { return nil, nil })
		var conns [8]*Conn
		var wg sync.WaitGroup
		for i := range conns {
			i := i
			a, b := net.Pipe()
			defer b.Close()
			wg.Add(1)
			go func() {
				defer wg.Done()
				conns[i] = s.ServeConn(a)
			}()
		}
		s.Close()
		wg.Wait()
		for _, c := range conns {
			waitDone(t, c, "connection accepted around Close")
		}
		waitFor(t, "the connection set to empty", func() bool { return s.Conns() == 0 })
	}
	s := NewServer(0, func(*Conn) (Handler, func()) {
		t.Error("accept ran on a closed server")
		return nil, nil
	})
	s.Close()
	a, b := net.Pipe()
	waitDone(t, s.ServeConn(a), "connection accepted after Close")
	if _, err := b.Read(make([]byte, 1)); err == nil {
		t.Error("stream of a refused connection still open")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(ln); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Serve after Close = %v, want net.ErrClosed", err)
	}
}
