package jsonrpc

import (
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// Server is the endpoint every JSON-RPC plane (ovsdb, p4rt, subscribe)
// serves through: it owns the listeners and the set of live connections,
// gives each accepted connection the protocol's write cap and the
// server's keepalive, and closes them all on Close. A protocol supplies
// only what differs: the cap and an accept function.
type Server struct {
	writeLimit int
	accept     func(*Conn) (Handler, func())

	mu        sync.Mutex
	listeners map[net.Listener]bool
	conns     map[*Conn]bool
	closed    bool
	// watchers counts the goroutines waiting on connections to end, so
	// Close returns only after every teardown hook has run.
	watchers   sync.WaitGroup
	kaInterval time.Duration
	// overflowBase accumulates departed connections' overflow counts so
	// jsonrpc_write_overflows_total stays monotonic.
	overflowBase uint64
}

// NewServer creates a server whose connections fail once writeLimit
// messages are queued toward a peer that is not reading (<= 0 leaves the
// queue unbounded). accept runs once per connection, before any of its
// requests is dispatched, and returns its handler and an optional hook
// that runs after the connection has ended.
func NewServer(writeLimit int, accept func(c *Conn) (h Handler, closed func())) *Server {
	return &Server{
		writeLimit: writeLimit,
		accept:     accept,
		listeners:  make(map[net.Listener]bool),
		conns:      make(map[*Conn]bool),
	}
}

// SetKeepalive makes every subsequently accepted connection probe its
// peer with echo heartbeats, so half-open peers are reaped (see
// Conn.StartKeepalive). 0 disables.
func (s *Server) SetKeepalive(interval time.Duration) {
	s.mu.Lock()
	s.kaInterval = interval
	s.mu.Unlock()
}

// SetObs registers the write-queue depth gauge and the overflow counter
// of this server's connections, labeled server=name. Nil-safe.
func (s *Server) SetObs(o *obs.Observer, name string) {
	reg := o.Reg()
	reg.GaugeFunc("jsonrpc_write_queue_depth",
		"Messages queued in JSON-RPC write queues.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for c := range s.conns {
				n += c.WriteQueueLen()
			}
			return float64(n)
		}, obs.L("server", name))
	reg.CounterFunc("jsonrpc_write_overflows_total",
		"Sends rejected by the JSON-RPC write-queue cap.", func() uint64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := s.overflowBase
			for c := range s.conns {
				n += c.WriteOverflows()
			}
			return n
		}, obs.L("server", name))
}

// Serve accepts connections on ln until the listener fails or is closed.
// It always returns a non-nil error (net.ErrClosed after Close).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.listeners[ln] = true
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		s.ServeConn(nc)
	}
}

// ListenAndServe listens on a TCP address and serves it.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// ServeConn attaches one peer stream and returns its connection (tests
// drive in-memory pipes through this). On a closed server the stream is
// closed and the connection returned is already done.
func (s *Server) ServeConn(rwc io.ReadWriteCloser) *Conn {
	c := NewConnPending(rwc)
	c.SetWriteLimit(s.writeLimit)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return c
	}
	s.conns[c] = true
	s.watchers.Add(1)
	interval := s.kaInterval
	s.mu.Unlock()
	h, closed := s.accept(c)
	c.Start(h)
	c.StartKeepalive(interval)
	go func() {
		defer s.watchers.Done()
		<-c.Done()
		if closed != nil {
			closed()
		}
		s.mu.Lock()
		delete(s.conns, c)
		s.overflowBase += c.WriteOverflows()
		s.mu.Unlock()
	}()
	return c
}

// Conns reports the number of live connections.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Broadcast sends one notification to every live connection. A peer too
// slow to take it is failed at the cap like any other send.
func (s *Server) Broadcast(method string, params any) {
	s.mu.Lock()
	conns := s.live()
	s.mu.Unlock()
	for _, c := range conns {
		c.Notify(method, params) // fails only on a connection going down
	}
}

// live snapshots the connection set; s.mu must be held.
func (s *Server) live() []*Conn {
	conns := make([]*Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	return conns
}

// Close stops the listeners, flushes and closes every connection, and
// waits for their teardown hooks. A connection accepted from here on is
// closed, not served.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	conns := s.live()
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	s.watchers.Wait()
}
