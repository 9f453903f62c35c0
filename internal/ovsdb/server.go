package ovsdb

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/jsonrpc"
	"repro/internal/obs"
	"repro/internal/wirejson"
)

// Server exposes one or more databases over the OVSDB JSON-RPC protocol:
// list_dbs, get_schema, transact, monitor, monitor_cancel, and echo.
type Server struct {
	mu  sync.Mutex
	dbs map[string]*Database

	lnMu      sync.Mutex
	listeners map[net.Listener]bool
	conns     map[*jsonrpc.Conn]bool
	closed    bool

	// kaInterval/kaMisses, when set, start echo keepalives on every
	// accepted connection so half-open clients are reaped.
	kaInterval time.Duration
	kaMisses   int

	// wrLimit caps each accepted connection's JSON-RPC write queue
	// (0 = default, <0 = unlimited); see SetWriteLimit.
	wrLimit int
	// overflowBase accumulates departed connections' overflow counts so
	// the jsonrpc_write_overflows_total reading stays monotonic.
	overflowBase uint64
}

// defaultWriteLimit bounds an accepted connection's write queue unless
// SetWriteLimit overrides it. Monitor fan-out (handleMonitor) enqueues
// every committed transaction into each monitoring client's queue, so
// a stalled monitor previously grew server memory without bound; at
// the cap the connection fails, and the resilient client redials and
// resyncs (the PR-5 reconnection path).
const defaultWriteLimit = 16384

// SetKeepalive makes every subsequently accepted connection probe its
// peer with echo heartbeats: misses consecutive failures fail the
// connection. Call before Serve; 0 disables.
func (s *Server) SetKeepalive(interval time.Duration, misses int) {
	s.lnMu.Lock()
	s.kaInterval, s.kaMisses = interval, misses
	s.lnMu.Unlock()
}

// SetWriteLimit caps the JSON-RPC write queue of every subsequently
// accepted connection; overflow fails the connection (the client's
// reconnect-and-resync path recovers). 0 restores the default
// (16384); negative disables the cap. Call before Serve.
func (s *Server) SetWriteLimit(limit int) {
	s.lnMu.Lock()
	s.wrLimit = limit
	s.lnMu.Unlock()
}

// SetObs registers the server's jsonrpc queue instrumentation (depth
// gauge and overflow counter, labeled server="ovsdb") with the given
// observer. Nil-safe.
func (s *Server) SetObs(o *obs.Observer) {
	reg := o.Reg()
	reg.GaugeFunc("jsonrpc_write_queue_depth",
		"Messages queued in JSON-RPC write queues.", func() float64 {
			s.lnMu.Lock()
			defer s.lnMu.Unlock()
			n := 0
			for c := range s.conns {
				n += c.WriteQueueLen()
			}
			return float64(n)
		}, obs.L("server", "ovsdb"))
	reg.CounterFunc("jsonrpc_write_overflows_total",
		"Sends rejected by the JSON-RPC write-queue cap.", func() uint64 {
			s.lnMu.Lock()
			defer s.lnMu.Unlock()
			n := s.overflowBase
			for c := range s.conns {
				n += c.WriteOverflows()
			}
			return n
		}, obs.L("server", "ovsdb"))
}

// NewServer creates a server hosting the given databases.
func NewServer(dbs ...*Database) *Server {
	s := &Server{
		dbs:       make(map[string]*Database),
		listeners: make(map[net.Listener]bool),
		conns:     make(map[*jsonrpc.Conn]bool),
	}
	for _, db := range dbs {
		s.dbs[db.Schema().Name] = db
	}
	return s
}

// Database returns the named hosted database, or nil.
func (s *Server) Database(name string) *Database {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dbs[name]
}

// Serve accepts connections on ln until the listener is closed. It always
// returns a non-nil error (net.ErrClosed after Close).
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.listeners[ln] = true
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.serveConn(conn)
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

// Close stops all listeners and connections.
func (s *Server) Close() {
	s.lnMu.Lock()
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	conns := make([]*jsonrpc.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.lnMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// serveConn wires one client connection. The connection is published into
// the handler state before its loops start, so request handling never
// observes a half-built serverConn.
func (s *Server) serveConn(nc net.Conn) {
	sc := &serverConn{server: s, monitors: make(map[string]*Monitor)}
	conn := jsonrpc.NewConnPending(nc)
	sc.conn = conn
	s.lnMu.Lock()
	limit := s.wrLimit
	s.lnMu.Unlock()
	if limit == 0 {
		limit = defaultWriteLimit
	}
	if limit > 0 {
		conn.SetWriteLimit(limit)
	}
	conn.Start(sc)
	s.lnMu.Lock()
	s.conns[conn] = true
	ka, misses := s.kaInterval, s.kaMisses
	s.lnMu.Unlock()
	if ka > 0 {
		conn.StartKeepalive(ka, misses)
	}
	go func() {
		<-conn.Done()
		sc.teardown()
		s.lnMu.Lock()
		delete(s.conns, conn)
		s.overflowBase += conn.WriteOverflows()
		s.lnMu.Unlock()
	}()
}

// serverConn is the per-connection protocol state.
type serverConn struct {
	server *Server
	conn   *jsonrpc.Conn

	mu       sync.Mutex
	monitors map[string]*Monitor // keyed by canonical monitor-id JSON
}

func (sc *serverConn) teardown() {
	sc.mu.Lock()
	mons := make([]*Monitor, 0, len(sc.monitors))
	for _, m := range sc.monitors {
		mons = append(mons, m)
	}
	sc.monitors = make(map[string]*Monitor)
	sc.mu.Unlock()
	for _, m := range mons {
		m.Cancel()
	}
}

func rpcErr(code, details string) *jsonrpc.RPCError {
	return &jsonrpc.RPCError{Code: code, Details: details}
}

// Handle dispatches one OVSDB method.
func (sc *serverConn) Handle(_ *jsonrpc.Conn, method string, params json.RawMessage) (any, *jsonrpc.RPCError) {
	switch method {
	case "echo":
		var v any
		if len(params) > 0 {
			if err := json.Unmarshal(params, &v); err != nil {
				return nil, rpcErr("bad params", err.Error())
			}
		}
		if v == nil {
			v = []any{}
		}
		return v, nil
	case "list_dbs":
		sc.server.mu.Lock()
		names := make([]string, 0, len(sc.server.dbs))
		for name := range sc.server.dbs {
			names = append(names, name)
		}
		sc.server.mu.Unlock()
		return names, nil
	case "get_schema":
		var p []string
		if err := json.Unmarshal(params, &p); err != nil || len(p) != 1 {
			return nil, rpcErr("bad params", "get_schema expects [db-name]")
		}
		db := sc.server.Database(p[0])
		if db == nil {
			return nil, rpcErr("unknown database", p[0])
		}
		return schemaToJSON(db.Schema()), nil
	case "transact":
		return sc.handleTransact(params)
	case "monitor":
		return sc.handleMonitor(params)
	case "monitor_cancel":
		return sc.handleMonitorCancel(params)
	default:
		return nil, rpcErr("unknown method", method)
	}
}

func (sc *serverConn) handleTransact(params json.RawMessage) (any, *jsonrpc.RPCError) {
	dbName, ops, err := parseTransact(params)
	if err != nil {
		return nil, rpcErr("bad params", err.Error())
	}
	db := sc.server.Database(dbName)
	if db == nil {
		return nil, rpcErr("unknown database", dbName)
	}
	return transactReply(db.Transact(ops)), nil
}

func (sc *serverConn) handleMonitor(params json.RawMessage) (any, *jsonrpc.RPCError) {
	var raw []json.RawMessage
	if err := json.Unmarshal(params, &raw); err != nil || len(raw) < 3 || len(raw) > 4 {
		return nil, rpcErr("bad params", "monitor expects [db-name, id, requests] or [db-name, id, requests, since]")
	}
	// Optional fourth element (this repo's durability extension): a txn
	// cursor. Its presence also changes the reply shape to
	// [found, last-txn, gap-or-initial] so the client learns its new
	// cursor; three-element requests keep the RFC 7047 reply.
	since, hasSince := NoCursor, false
	if len(raw) == 4 {
		if err := json.Unmarshal(raw[3], &since); err != nil {
			return nil, rpcErr("bad params", "since must be a transaction id")
		}
		hasSince = true
	}
	var dbName string
	if err := json.Unmarshal(raw[0], &dbName); err != nil {
		return nil, rpcErr("bad params", "db-name must be a string")
	}
	db := sc.server.Database(dbName)
	if db == nil {
		return nil, rpcErr("unknown database", dbName)
	}
	monID := canonicalJSON(raw[1])
	var rawReqs map[string]json.RawMessage
	if err := json.Unmarshal(raw[2], &rawReqs); err != nil {
		return nil, rpcErr("bad params", "monitor requests must be an object")
	}
	requests := make(map[string]*MonitorRequest, len(rawReqs))
	for table, rr := range rawReqs {
		req, err := parseMonitorRequest(rr)
		if err != nil {
			return nil, rpcErr("bad params", fmt.Sprintf("table %s: %v", table, err))
		}
		requests[table] = req
	}
	sc.mu.Lock()
	if _, dup := sc.monitors[monID]; dup {
		sc.mu.Unlock()
		return nil, rpcErr("duplicate monitor id", monID)
	}
	sc.mu.Unlock()

	// raw[1] aliases the read buffer; the notifications need their own
	// (compacted) copy of the id.
	id, err := wirejson.AppendCompact(nil, raw[1])
	if err != nil {
		return nil, rpcErr("bad params", "malformed monitor id")
	}
	// The txn ID rides as an optional third element of the update
	// notification so clients can correlate updates with traced
	// transactions; RFC 7047 clients that expect two elements should
	// ignore extras.
	mon, found, lastTxn, gap, initial, err := db.addMonitor(requests, since, nil, func(txn uint64, updates []byte) {
		sc.conn.Notify("update", updateParams{id: id, updates: updates, txn: txn})
	})
	if err != nil {
		return nil, rpcErr("bad request", err.Error())
	}
	sc.mu.Lock()
	sc.monitors[monID] = mon
	sc.mu.Unlock()
	if !hasSince {
		return initial, nil
	}
	if found {
		return []any{true, lastTxn, gap}, nil
	}
	return []any{false, lastTxn, initial}, nil
}

// parseMonitorRequest accepts an object or an array of objects (RFC 7047
// allows both); arrays are merged: column union, select OR.
func parseMonitorRequest(raw json.RawMessage) (*MonitorRequest, error) {
	var one MonitorRequest
	if err := json.Unmarshal(raw, &one); err == nil {
		return &one, nil
	}
	var many []MonitorRequest
	if err := json.Unmarshal(raw, &many); err != nil {
		return nil, fmt.Errorf("malformed monitor request")
	}
	if len(many) == 0 {
		return &MonitorRequest{}, nil
	}
	merged := many[0]
	for _, r := range many[1:] {
		merged.Columns = append(merged.Columns, r.Columns...)
	}
	return &merged, nil
}

func (sc *serverConn) handleMonitorCancel(params json.RawMessage) (any, *jsonrpc.RPCError) {
	var raw []json.RawMessage
	if err := json.Unmarshal(params, &raw); err != nil || len(raw) != 1 {
		return nil, rpcErr("bad params", "monitor_cancel expects [id]")
	}
	monID := canonicalJSON(raw[0])
	sc.mu.Lock()
	mon := sc.monitors[monID]
	delete(sc.monitors, monID)
	sc.mu.Unlock()
	if mon == nil {
		return nil, rpcErr("unknown monitor", monID)
	}
	mon.Cancel()
	return map[string]any{}, nil
}

// canonicalJSON normalizes a JSON value for use as a map key.
func canonicalJSON(raw json.RawMessage) string {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return string(raw)
	}
	out, err := json.Marshal(v)
	if err != nil {
		return string(raw)
	}
	return string(out)
}

// schemaToJSON renders a schema in .ovsschema form.
func schemaToJSON(ds *DatabaseSchema) map[string]any {
	tables := make(map[string]any, len(ds.Tables))
	for tname, ts := range ds.Tables {
		cols := make(map[string]any, len(ts.Columns))
		for cname, cs := range ts.Columns {
			cols[cname] = map[string]any{"type": columnTypeToJSON(&cs.Type)}
		}
		tj := map[string]any{"columns": cols}
		if ts.MaxRows > 0 {
			tj["maxRows"] = ts.MaxRows
		}
		if ts.IsRoot {
			tj["isRoot"] = true
		}
		if len(ts.Indexes) > 0 {
			tj["indexes"] = ts.Indexes
		}
		tables[tname] = tj
	}
	return map[string]any{"name": ds.Name, "version": ds.Version, "tables": tables}
}

func columnTypeToJSON(ct *ColumnType) any {
	if ct.IsScalar() && ct.Key.Enum == nil {
		return ct.Key.Type
	}
	out := map[string]any{"key": baseTypeToJSON(&ct.Key)}
	if ct.Value != nil {
		out["value"] = baseTypeToJSON(ct.Value)
	}
	if ct.Min != 1 {
		out["min"] = ct.Min
	}
	if ct.Max == Unlimited {
		out["max"] = "unlimited"
	} else if ct.Max != 1 {
		out["max"] = ct.Max
	}
	return out
}

func baseTypeToJSON(bt *BaseType) any {
	if bt.Enum == nil {
		return bt.Type
	}
	return map[string]any{"type": bt.Type, "enum": ValueToJSON(bt.Enum)}
}
