package p4rt

import (
	"encoding/json"
	"net"
	"sync"
	"time"

	"repro/internal/jsonrpc"
)

// Server exposes a Device over the p4rt protocol. All connected clients
// receive digest and packet-in notifications (the prototype has a single
// controller; primary/backup arbitration is out of scope).
type Server struct {
	dev Device

	mu        sync.Mutex
	listeners map[net.Listener]bool
	conns     map[*jsonrpc.Conn]bool
	closed    bool

	// kaInterval/kaMisses, when set, start echo keepalives on every
	// accepted connection so half-open controllers are reaped.
	kaInterval time.Duration
	kaMisses   int
}

// SetKeepalive makes every subsequently accepted connection probe its
// peer with echo heartbeats: misses consecutive failures fail the
// connection. Call before Serve; 0 disables.
func (s *Server) SetKeepalive(interval time.Duration, misses int) {
	s.mu.Lock()
	s.kaInterval, s.kaMisses = interval, misses
	s.mu.Unlock()
}

// NewServer creates a server for the device.
func NewServer(dev Device) *Server {
	return &Server{
		dev:       dev,
		listeners: make(map[net.Listener]bool),
		conns:     make(map[*jsonrpc.Conn]bool),
	}
}

// Serve accepts connections until the listener closes.
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
		s.addConn(nc)
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

// Close stops listeners and connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	conns := make([]*jsonrpc.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (s *Server) addConn(nc net.Conn) {
	conn := jsonrpc.NewConn(nc, jsonrpc.HandlerFunc(s.handle))
	s.mu.Lock()
	s.conns[conn] = true
	ka, misses := s.kaInterval, s.kaMisses
	s.mu.Unlock()
	if ka > 0 {
		conn.StartKeepalive(ka, misses)
	}
	go func() {
		<-conn.Done()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
}

// NotifyDigest pushes a digest list to every connected controller.
func (s *Server) NotifyDigest(dl DigestList) {
	s.mu.Lock()
	conns := make([]*jsonrpc.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Notify("digest", dl)
	}
}

// NotifyPacketIn pushes a packet-in to every connected controller.
func (s *Server) NotifyPacketIn(pi PacketIn) {
	s.mu.Lock()
	conns := make([]*jsonrpc.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Notify("packet_in", pi)
	}
}

// emptyObject is the reply of methods with nothing to return, boxed once.
var emptyObject any = json.RawMessage("{}")

func (s *Server) handle(_ *jsonrpc.Conn, method string, params json.RawMessage) (any, *jsonrpc.RPCError) {
	switch method {
	case "echo":
		// Keepalive probe: echo the params back.
		var v any
		_ = json.Unmarshal(params, &v)
		if v == nil {
			v = []any{}
		}
		return v, nil
	case "get_p4info":
		return s.dev.P4Info(), nil
	case "write":
		updates, txn, err := parseWrite(params)
		if err != nil {
			return nil, &jsonrpc.RPCError{Code: "bad params", Details: err.Error()}
		}
		if td, ok := s.dev.(TxnDevice); ok && txn != 0 {
			err = td.WriteTxn(txn, updates)
		} else {
			err = s.dev.Write(updates)
		}
		if err != nil {
			return nil, &jsonrpc.RPCError{Code: "write failed", Details: err.Error()}
		}
		return emptyObject, nil
	case "read":
		var table string
		if err := json.Unmarshal(params, &table); err != nil {
			return nil, &jsonrpc.RPCError{Code: "bad params", Details: "read expects a table name"}
		}
		entries, err := s.dev.ReadTable(table)
		if err != nil {
			return nil, &jsonrpc.RPCError{Code: "read failed", Details: err.Error()}
		}
		return entries, nil
	case "packet_out":
		var po PacketOut
		if err := json.Unmarshal(params, &po); err != nil {
			return nil, &jsonrpc.RPCError{Code: "bad params", Details: err.Error()}
		}
		if err := s.dev.PacketOut(po.Port, po.Data); err != nil {
			return nil, &jsonrpc.RPCError{Code: "packet_out failed", Details: err.Error()}
		}
		return emptyObject, nil
	case "read_counters":
		var table string
		if err := json.Unmarshal(params, &table); err != nil {
			return nil, &jsonrpc.RPCError{Code: "bad params", Details: "read_counters expects a table name"}
		}
		cr, ok := s.dev.(CounterReader)
		if !ok {
			return nil, &jsonrpc.RPCError{Code: "unimplemented", Details: "device has no counters"}
		}
		c, ok := cr.Counters(table)
		if !ok {
			return nil, &jsonrpc.RPCError{Code: "read failed", Details: "unknown table " + table}
		}
		return c, nil
	case "digest_ack":
		var listID uint64
		if err := json.Unmarshal(params, &listID); err != nil {
			return nil, &jsonrpc.RPCError{Code: "bad params", Details: err.Error()}
		}
		s.dev.AckDigest(listID)
		return nil, nil
	default:
		return nil, &jsonrpc.RPCError{Code: "unknown method", Details: method}
	}
}
