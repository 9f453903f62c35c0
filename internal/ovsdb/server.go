package ovsdb

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/jsonrpc"
	"repro/internal/wirejson"
)

// Server exposes one or more databases over the OVSDB JSON-RPC protocol:
// list_dbs, get_schema, transact, monitor and monitor_cancel (echo is the
// connection's own). The endpoint — Serve, ListenAndServe, ServeConn,
// SetKeepalive, SetObs, Close — is the embedded jsonrpc.Server.
type Server struct {
	*jsonrpc.Server

	mu  sync.Mutex
	dbs map[string]*Database
}

// writeLimit bounds an accepted connection's write queue. Monitor
// fan-out (handleMonitor) enqueues every committed transaction into each
// monitoring client's queue, so a stalled monitor would grow server
// memory without bound; at the cap the connection fails, and the
// resilient client redials and resyncs.
const writeLimit = 16384

// NewServer creates a server hosting the given databases.
func NewServer(dbs ...*Database) *Server {
	s := &Server{dbs: make(map[string]*Database)}
	for _, db := range dbs {
		s.dbs[db.Schema().Name] = db
	}
	s.Server = jsonrpc.NewServer(writeLimit, func(c *jsonrpc.Conn) (jsonrpc.Handler, func()) {
		sc := &serverConn{server: s, conn: c, monitors: make(map[string]*Monitor)}
		return sc, sc.teardown
	})
	return s
}

// Database returns the named hosted database, or nil.
func (s *Server) Database(name string) *Database {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dbs[name]
}

// serverConn is the per-connection protocol state.
type serverConn struct {
	server *Server
	conn   *jsonrpc.Conn

	mu       sync.Mutex
	monitors map[string]*Monitor // keyed by canonical monitor-id JSON
	// closed is set by teardown. A Close from another goroutine ends the
	// connection while its read loop may still be serving a monitor
	// request, which must then not register its monitor.
	closed bool
}

func (sc *serverConn) teardown() {
	sc.mu.Lock()
	mons := make([]*Monitor, 0, len(sc.monitors))
	for _, m := range sc.monitors {
		mons = append(mons, m)
	}
	sc.monitors = make(map[string]*Monitor)
	sc.closed = true
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
	return transactReply{results: db.Transact(ops)}, nil
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
	if sc.closed {
		sc.mu.Unlock()
		mon.Cancel()
		return nil, rpcErr("connection closed", monID)
	}
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
	return map[string]any{"type": bt.Type, "enum": bt.Enum}
}
