package ovsdb

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"repro/internal/jsonrpc"
	"repro/internal/wirejson"
)

// Client is an OVSDB protocol client: transactions, schema introspection,
// and monitors with ordered update delivery.
type Client struct {
	conn *jsonrpc.Conn

	mu sync.Mutex
	// schemas caches GetSchema per database: decoding a row takes its
	// table's column types, so every reply and update that carries rows is
	// read against the schema of the database it came from.
	schemas map[string]*DatabaseSchema
	// monitors is keyed by the monitor id's canonical JSON.
	monitors map[string]*clientMonitor
	// updates queues decoded update notifications for the delivery
	// goroutine (see deliverUpdates); upWake signals a non-empty queue.
	updates []clientUpdate
	upWake  chan struct{}
}

// clientMonitor is one registered monitor: its key in Client.monitors,
// the schema that types its updates and the callback they go to.
type clientMonitor struct {
	id     string
	schema *DatabaseSchema
	cb     func(uint64, TableUpdates)
}

// clientUpdate is one decoded update notification awaiting delivery.
type clientUpdate struct {
	mon *clientMonitor
	txn uint64
	tu  TableUpdates
}

// Dial connects to an OVSDB server over TCP.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established byte stream.
func NewClient(rwc io.ReadWriteCloser) *Client {
	c := &Client{
		schemas:  make(map[string]*DatabaseSchema),
		monitors: make(map[string]*clientMonitor),
		upWake:   make(chan struct{}, 1),
	}
	c.conn = jsonrpc.NewConn(rwc, jsonrpc.HandlerFunc(c.handle))
	go c.deliverUpdates()
	return c
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Done is closed when the connection fails or is closed.
func (c *Client) Done() <-chan struct{} { return c.conn.Done() }

func (c *Client) handle(_ *jsonrpc.Conn, method string, params json.RawMessage) (any, *jsonrpc.RPCError) {
	switch method {
	case "update":
		// The optional third element is the server-minted txn ID (this
		// repo's extension for cross-plane tracing).
		// A server echoes the id as this client sent it, which is its
		// canonical form unless it holds numbers float64 cannot carry.
		var mon *clientMonitor
		_, tu, txn, err := parseUpdate(params, func(id []byte) *DatabaseSchema {
			c.mu.Lock()
			defer c.mu.Unlock()
			if mon = c.monitors[string(id)]; mon == nil {
				mon = c.monitors[canonicalJSON(id)]
			}
			if mon == nil {
				return nil
			}
			return mon.schema
		})
		if err != nil {
			return nil, &jsonrpc.RPCError{Code: "bad params", Details: err.Error()}
		}
		if mon == nil {
			return nil, nil
		}
		// Queue for the delivery goroutine rather than calling the
		// callback here: handlers run on the connection's read loop, so
		// a callback that blocked on (or issued) an RPC on this same
		// connection would deadlock against its own reply.
		c.mu.Lock()
		c.updates = append(c.updates, clientUpdate{mon: mon, txn: txn, tu: tu})
		c.mu.Unlock()
		select {
		case c.upWake <- struct{}{}:
		default:
		}
		return nil, nil
	default:
		return nil, &jsonrpc.RPCError{Code: "unknown method", Details: method}
	}
}

// deliverUpdates forwards queued update notifications to their monitor
// callbacks in arrival (= commit) order, off the read loop. The
// resilient client's gap-replay resync relies on this: it holds its
// delivery lock while awaiting the monitor RPC reply, and an early live
// update must park here — not on the read loop — for the reply to be
// read at all.
func (c *Client) deliverUpdates() {
	for {
		c.mu.Lock()
		batch := c.updates
		c.updates = nil
		c.mu.Unlock()
		if len(batch) == 0 {
			select {
			case <-c.upWake:
				continue
			case <-c.conn.Done():
				// Final drain of anything queued before the connection died.
				c.mu.Lock()
				batch = c.updates
				c.updates = nil
				c.mu.Unlock()
				if len(batch) == 0 {
					return
				}
			}
		}
		for i := range batch {
			mon := batch[i].mon
			c.mu.Lock()
			live := c.monitors[mon.id] == mon // not cancelled meanwhile
			c.mu.Unlock()
			if live {
				mon.cb(batch[i].txn, batch[i].tu)
			}
		}
	}
}

// ListDbs returns the names of the hosted databases.
func (c *Client) ListDbs() ([]string, error) {
	var out []string
	if err := c.conn.Call("list_dbs", []any{}, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// GetSchema fetches and parses a database schema.
func (c *Client) GetSchema(db string) (*DatabaseSchema, error) {
	var raw json.RawMessage
	if err := c.conn.Call("get_schema", []any{db}, &raw); err != nil {
		return nil, err
	}
	schema, err := ParseSchema(raw)
	if err == nil {
		c.mu.Lock()
		c.schemas[db] = schema
		c.mu.Unlock()
	}
	return schema, err
}

// schemaOf returns the schema rows of db are decoded against: the one
// the last GetSchema fetched, fetching it if there was none.
func (c *Client) schemaOf(db string) (*DatabaseSchema, error) {
	c.mu.Lock()
	schema := c.schemas[db]
	c.mu.Unlock()
	if schema != nil {
		return schema, nil
	}
	return c.GetSchema(db)
}

// Echo round-trips a keepalive.
func (c *Client) Echo() error {
	var out any
	return c.conn.Call("echo", []any{"ping"}, &out)
}

// Transact runs operations against the named database and parses the
// per-operation results.
func (c *Client) Transact(db string, ops ...Operation) ([]OpResult, error) {
	reply := transactReply{ops: ops}
	if slices.ContainsFunc(ops, func(op Operation) bool { return op.Op == "select" }) {
		var err error // a select's is the one result that carries rows
		if reply.schema, err = c.schemaOf(db); err != nil {
			return nil, err
		}
	}
	if err := c.conn.Call("transact", transactParams{db: db, ops: ops}, &reply); err != nil {
		return nil, err
	}
	return reply.results, nil
}

// TransactErr is like Transact but turns any per-operation error into a Go
// error.
func (c *Client) TransactErr(db string, ops ...Operation) ([]OpResult, error) {
	results, err := c.Transact(db, ops...)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		if r.Error != "" {
			return results, fmt.Errorf("ovsdb: operation %d failed: %s (%s)", i, r.Error, r.Details)
		}
	}
	return results, nil
}

// Monitor registers a monitor and returns the initial contents. Updates
// are delivered to cb in commit order on the connection's read loop; cb
// must not block on calls back into this client.
func (c *Client) Monitor(db string, id any, requests map[string]*MonitorRequest, cb func(TableUpdates)) (TableUpdates, error) {
	return c.MonitorTxn(db, id, requests, func(_ uint64, tu TableUpdates) { cb(tu) })
}

// MonitorTxn is Monitor with transaction-aware delivery: cb additionally
// receives the txn ID the server minted at commit (0 when the server does
// not send one), enabling cross-plane trace correlation.
func (c *Client) MonitorTxn(db string, id any, requests map[string]*MonitorRequest, cb func(uint64, TableUpdates)) (TableUpdates, error) {
	var reply monitorReply
	err := c.monitor(db, id, requests, 0, cb, &reply)
	return reply.initial, err
}

// MonitorSince is MonitorTxn with a transaction cursor (this repo's
// durability extension). since is the last transaction the caller has
// seen, NoCursor for none. When the server still retains every commit
// after since, found is true and gap carries them as per-transaction
// deltas; otherwise found is false and initial is a full snapshot.
// Either way lastTxn is the caller's new cursor. Live updates beyond
// lastTxn are delivered to cb as usual.
func (c *Client) MonitorSince(db string, id any, requests map[string]*MonitorRequest, since uint64, cb func(uint64, TableUpdates)) (found bool, lastTxn uint64, initial TableUpdates, gap []GapUpdate, err error) {
	reply := monitorReply{cursor: true}
	if err := c.monitor(db, id, requests, since, cb, &reply); err != nil {
		return false, 0, nil, nil, err
	}
	return reply.found, reply.lastTxn, reply.initial, reply.gap, nil
}

// monitor registers cb under id and calls monitor, with the cursor since
// if the reply is to be a cursor's. The registration, with the schema
// that types the monitor's rows, precedes the call: an update can reach
// the read loop before the reply does.
func (c *Client) monitor(db string, id any, requests map[string]*MonitorRequest, since uint64, cb func(uint64, TableUpdates), reply *monitorReply) error {
	idRaw, err := json.Marshal(id)
	if err != nil {
		return err
	}
	if reply.schema, err = c.schemaOf(db); err != nil {
		return err
	}
	monID := canonicalJSON(idRaw)
	c.mu.Lock()
	if _, dup := c.monitors[monID]; dup {
		c.mu.Unlock()
		return fmt.Errorf("ovsdb: duplicate monitor id %s", monID)
	}
	c.monitors[monID] = &clientMonitor{id: monID, schema: reply.schema, cb: cb}
	c.mu.Unlock()
	params := []any{db, id, requests}
	if reply.cursor {
		params = append(params, since)
	}
	if err := c.conn.Call("monitor", params, reply); err != nil {
		// Unregister on every failure, a reply that does not decode
		// among them: leaving the callback behind would make every later
		// monitor with the same id report a spurious duplicate (and leak
		// the closure for the connection's lifetime).
		c.mu.Lock()
		delete(c.monitors, monID)
		c.mu.Unlock()
		return err
	}
	return nil
}

// MonitorCancel cancels a previously registered monitor.
func (c *Client) MonitorCancel(id any) error {
	idRaw, err := json.Marshal(id)
	if err != nil {
		return err
	}
	monID := canonicalJSON(idRaw)
	c.mu.Lock()
	delete(c.monitors, monID)
	c.mu.Unlock()
	var out any
	return c.conn.Call("monitor_cancel", []any{id}, &out)
}

// --- Operation builders ---

// clause builds a [column, op, value] triple from a typed Value,
// panicking on a value JSON cannot carry (a non-finite real).
func clause(column, op string, v Value) [3]json.RawMessage {
	raw, err := appendWireValue(nil, v)
	if err != nil {
		panic(err)
	}
	return [3]json.RawMessage{wirejson.AppendString(nil, column), wirejson.AppendString(nil, op), raw}
}

// Cond builds a where clause [column, op, value] from a typed Value.
func Cond(column, op string, v Value) [3]json.RawMessage { return clause(column, op, v) }

// Mutation builds a mutation [column, mutator, value] from a typed Value.
func Mutation(column, mutator string, v Value) [3]json.RawMessage { return clause(column, mutator, v) }

// OpInsert builds an insert operation.
func OpInsert(table string, row map[string]Value) Operation {
	return Operation{Op: "insert", Table: table, Row: row}
}

// OpInsertNamed builds an insert with a named UUID usable later in the
// same transaction.
func OpInsertNamed(table, uuidName string, row map[string]Value) Operation {
	return Operation{Op: "insert", Table: table, Row: row, UUIDName: uuidName}
}

// OpSelect builds a select operation.
func OpSelect(table string, where ...[3]json.RawMessage) Operation {
	return Operation{Op: "select", Table: table, Where: where}
}

// OpUpdate builds an update operation.
func OpUpdate(table string, row map[string]Value, where ...[3]json.RawMessage) Operation {
	return Operation{Op: "update", Table: table, Row: row, Where: where}
}

// OpDelete builds a delete operation.
func OpDelete(table string, where ...[3]json.RawMessage) Operation {
	return Operation{Op: "delete", Table: table, Where: where}
}

// OpMutate builds a mutate operation.
func OpMutate(table string, mutations [][3]json.RawMessage, where ...[3]json.RawMessage) Operation {
	return Operation{Op: "mutate", Table: table, Mutations: mutations, Where: where}
}
