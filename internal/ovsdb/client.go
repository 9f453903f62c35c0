package ovsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/jsonrpc"
	"repro/internal/wirejson"
)

// Client is an OVSDB protocol client: transactions, schema introspection,
// and monitors with ordered update delivery.
type Client struct {
	conn *jsonrpc.Conn

	mu sync.Mutex
	// monitors is keyed by the monitor id's canonical JSON.
	monitors map[string]*clientMonitor
	// updates queues decoded update notifications for the delivery
	// goroutine (see deliverUpdates); upWake signals a non-empty queue.
	updates []clientUpdate
	upWake  chan struct{}
}

// clientMonitor is one registered monitor: its key in Client.monitors
// and the callback its updates go to.
type clientMonitor struct {
	id string
	cb func(uint64, TableUpdates)
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
		id, tu, txn, err := parseUpdate(params)
		if err != nil {
			return nil, &jsonrpc.RPCError{Code: "bad params", Details: err.Error()}
		}
		// A server echoes the id as this client sent it, which is its
		// canonical form unless it holds numbers float64 cannot carry.
		// Queue for the delivery goroutine rather than calling the
		// callback here: handlers run on the connection's read loop, so
		// a callback that blocked on (or issued) an RPC on this same
		// connection would deadlock against its own reply.
		c.mu.Lock()
		mon := c.monitors[string(id)]
		if mon == nil {
			mon = c.monitors[canonicalJSON(id)]
		}
		if mon != nil {
			c.updates = append(c.updates, clientUpdate{mon: mon, txn: txn, tu: tu})
		}
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
	return ParseSchema(raw)
}

// Echo round-trips a keepalive.
func (c *Client) Echo() error {
	var out any
	return c.conn.Call("echo", []any{"ping"}, &out)
}

// Transact runs operations against the named database and parses the
// per-operation results.
func (c *Client) Transact(db string, ops ...Operation) ([]OpResult, error) {
	var results transactReply
	if err := c.conn.Call("transact", transactParams{db: db, ops: ops}, &results); err != nil {
		return nil, err
	}
	return results, nil
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
	idRaw, err := json.Marshal(id)
	if err != nil {
		return nil, err
	}
	monID := canonicalJSON(idRaw)
	c.mu.Lock()
	if _, dup := c.monitors[monID]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("ovsdb: duplicate monitor id %s", monID)
	}
	c.monitors[monID] = &clientMonitor{id: monID, cb: cb}
	c.mu.Unlock()

	var raw json.RawMessage
	if err := c.conn.Call("monitor", []any{db, id, requests}, &raw); err != nil {
		c.mu.Lock()
		delete(c.monitors, monID)
		c.mu.Unlock()
		return nil, err
	}
	var initial TableUpdates
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&initial); err != nil {
		// Unregister on this failure path too: leaving the callback behind
		// would make every later monitor with the same id report a spurious
		// duplicate (and leak the closure for the connection's lifetime).
		c.mu.Lock()
		delete(c.monitors, monID)
		c.mu.Unlock()
		return nil, fmt.Errorf("ovsdb: bad initial monitor reply: %w", err)
	}
	return initial, nil
}

// MonitorSince is MonitorTxn with a transaction cursor (this repo's
// durability extension). since is the last transaction the caller has
// seen, NoCursor for none. When the server still retains every commit
// after since, found is true and gap carries them as per-transaction
// deltas; otherwise found is false and initial is a full snapshot.
// Either way lastTxn is the caller's new cursor. Live updates beyond
// lastTxn are delivered to cb as usual.
func (c *Client) MonitorSince(db string, id any, requests map[string]*MonitorRequest, since uint64, cb func(uint64, TableUpdates)) (found bool, lastTxn uint64, initial TableUpdates, gap []GapUpdate, err error) {
	idRaw, err := json.Marshal(id)
	if err != nil {
		return false, 0, nil, nil, err
	}
	monID := canonicalJSON(idRaw)
	c.mu.Lock()
	if _, dup := c.monitors[monID]; dup {
		c.mu.Unlock()
		return false, 0, nil, nil, fmt.Errorf("ovsdb: duplicate monitor id %s", monID)
	}
	c.monitors[monID] = &clientMonitor{id: monID, cb: cb}
	c.mu.Unlock()
	// Every error path must unregister the callback (see MonitorTxn).
	fail := func(err error) (bool, uint64, TableUpdates, []GapUpdate, error) {
		c.mu.Lock()
		delete(c.monitors, monID)
		c.mu.Unlock()
		return false, 0, nil, nil, err
	}
	var raw []json.RawMessage
	if err := c.conn.Call("monitor", []any{db, id, requests, since}, &raw); err != nil {
		return fail(err)
	}
	if len(raw) != 3 {
		return fail(fmt.Errorf("ovsdb: bad cursor monitor reply: %d elements", len(raw)))
	}
	if err := json.Unmarshal(raw[0], &found); err != nil {
		return fail(fmt.Errorf("ovsdb: bad cursor monitor reply: %w", err))
	}
	if err := json.Unmarshal(raw[1], &lastTxn); err != nil {
		return fail(fmt.Errorf("ovsdb: bad cursor monitor reply: %w", err))
	}
	dec := json.NewDecoder(bytes.NewReader(raw[2]))
	dec.UseNumber()
	if found {
		gap = []GapUpdate{}
		if err := dec.Decode(&gap); err != nil {
			return fail(fmt.Errorf("ovsdb: bad monitor gap reply: %w", err))
		}
	} else if err := dec.Decode(&initial); err != nil {
		return fail(fmt.Errorf("ovsdb: bad initial monitor reply: %w", err))
	}
	return found, lastTxn, initial, gap, nil
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

// JSONRow converts typed column values to a JSON row object.
func JSONRow(row map[string]Value) map[string]any {
	out := make(map[string]any, len(row))
	for col, v := range row {
		out[col] = ValueToJSON(v)
	}
	return out
}

// OpInsert builds an insert operation.
func OpInsert(table string, row map[string]Value) Operation {
	return Operation{Op: "insert", Table: table, Row: JSONRow(row)}
}

// OpInsertNamed builds an insert with a named UUID usable later in the
// same transaction.
func OpInsertNamed(table, uuidName string, row map[string]Value) Operation {
	return Operation{Op: "insert", Table: table, Row: JSONRow(row), UUIDName: uuidName}
}

// OpSelect builds a select operation.
func OpSelect(table string, where ...[3]json.RawMessage) Operation {
	return Operation{Op: "select", Table: table, Where: where}
}

// OpUpdate builds an update operation.
func OpUpdate(table string, row map[string]Value, where ...[3]json.RawMessage) Operation {
	return Operation{Op: "update", Table: table, Row: JSONRow(row), Where: where}
}

// OpDelete builds a delete operation.
func OpDelete(table string, where ...[3]json.RawMessage) Operation {
	return Operation{Op: "delete", Table: table, Where: where}
}

// OpMutate builds a mutate operation.
func OpMutate(table string, mutations [][3]json.RawMessage, where ...[3]json.RawMessage) Operation {
	return Operation{Op: "mutate", Table: table, Mutations: mutations, Where: where}
}

// RowFromJSON converts a JSON row object (as found in monitor updates and
// select results) back to typed column values. Unknown columns (including
// _uuid) are skipped unless listed in the table schema.
func RowFromJSON(ts *TableSchema, obj map[string]any) (Row, error) {
	row := make(Row, len(obj))
	for col, rv := range obj {
		cs := ts.Columns[col]
		if cs == nil {
			continue
		}
		v, err := ValueFromJSON(rv, &cs.Type)
		if err != nil {
			return nil, fmt.Errorf("ovsdb: column %q: %w", col, err)
		}
		row[col] = v
	}
	return row, nil
}
