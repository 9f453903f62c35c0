package ovsdb

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/redial"
)

// ErrDisconnected is returned by RPCs issued while the resilient client
// has no live connection (it is redialing in the background).
var ErrDisconnected = errors.New("ovsdb: disconnected")

// ErrClosed is returned by RPCs issued after Close.
var ErrClosed = errors.New("ovsdb: client closed")

// ResilientConfig configures a self-healing OVSDB client.
type ResilientConfig struct {
	// Addr is the server address passed to Dial on every (re)connection.
	Addr string
	// Dial establishes the byte stream; nil selects TCP. Tests substitute
	// fault-injecting dialers here.
	Dial func(addr string) (io.ReadWriteCloser, error)
	// BackoffMin/BackoffMax bound the exponential redial backoff
	// (defaults 50ms and 5s). Each wait is jittered to half-to-full of
	// the current backoff so a fleet of controllers does not redial in
	// lockstep after a server restart.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// CallTimeout bounds every RPC on every connection (0 = no deadline).
	CallTimeout time.Duration
	// KeepaliveInterval enables echo heartbeats on every connection
	// (0 = disabled).
	KeepaliveInterval time.Duration
	// Obs receives ovsdb_reconnects_total / ovsdb_disconnected and the
	// conn.drop / conn.redial / conn.resync events; the client also
	// flags itself in the observer's degraded set while down. nil
	// disables all instrumentation.
	Obs *obs.Observer
}

// monState is the monitor the resilient client re-establishes after every
// reconnection, plus the row cache the resync diff runs against. The
// cache mirrors exactly what the server has told us: projected New rows
// from the initial snapshot and every subsequent update.
type monState struct {
	db       string
	id       any
	requests map[string]*MonitorRequest
	cb       func(uint64, TableUpdates)
	// cache is table → row UUID → projected row, as delivered (shared
	// with the subscriber: read-only).
	cache map[string]map[string]Row
	// lastTxn is the resumption cursor: the newest transaction the
	// cache reflects. Reconnection passes it as the monitor's since so
	// a server retaining the gap replays only the missed commits.
	lastTxn uint64
}

// ResilientClient wraps Client with automatic redial and monitor
// re-establishment. On connection loss it redials with jittered
// exponential backoff, re-issues the monitor, diffs the fresh snapshot
// against the cached row state, and delivers the difference to the
// monitor callback as synthetic updates — so a subscriber that survives
// the outage converges to the server's current state without replaying
// it from scratch and without seeing phantom changes for unchanged rows.
//
// Done() fires only on Close, never on transient connection loss: the
// whole point is that subscribers outlive individual connections.
type ResilientClient struct {
	cfg ResilientConfig
	sup *redial.Supervisor[*Client]

	// monMu serializes monitor registration, cache mutation, and
	// callback delivery, so synthetic resync updates and live updates
	// never interleave out of order. monGen counts monitor
	// registrations: each connection's delivery callback is bound to the
	// generation it was registered under, so updates still queued from a
	// dead connection are dropped instead of being applied after a
	// resync has already advanced the cache past them.
	monMu  sync.Mutex
	mon    *monState
	monGen uint64

	mGapReplays  *obs.Counter
	mSnapResyncs *obs.Counter
	rec          *obs.Recorder

	// Resync-path counts mirrored outside obs so tests and tooling can
	// assert how reconnections resynchronized.
	nGapReplays  atomic.Uint64
	nSnapResyncs atomic.Uint64
}

// DialResilient connects to the server and starts the supervision loop.
// The initial dial fails fast (a misconfigured address should not retry
// forever); only established sessions self-heal.
func DialResilient(cfg ResilientConfig) (*ResilientClient, error) {
	r := &ResilientClient{cfg: cfg, rec: cfg.Obs.Rec()}
	reg := cfg.Obs.Reg()
	r.mGapReplays = reg.Counter("ovsdb_gap_replays_total",
		"Reconnections resumed by monitor gap replay (cursor within the retained window).")
	r.mSnapResyncs = reg.Counter("ovsdb_snapshot_resyncs_total",
		"Reconnections that fell back to a full snapshot-diff resync.")
	r.sup = redial.New(redial.Config[*Client]{
		Connect:     r.connect,
		Rearm:       func(c *Client, _ func() bool) error { return r.resync(c) },
		BackoffMin:  cfg.BackoffMin,
		BackoffMax:  cfg.BackoffMax,
		ErrClosed:   ErrClosed,
		ErrDown:     ErrDisconnected,
		Obs:         cfg.Obs,
		Plane:       "ovsdb",
		DegradedKey: "ovsdb",
		Reconnects: reg.Counter("ovsdb_reconnects_total",
			"Successful OVSDB session re-establishments after connection loss."),
		Disconnected: reg.Gauge("ovsdb_disconnected",
			"1 while the OVSDB connection is down and redialing, else 0."),
	})
	if err := r.sup.Start(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *ResilientClient) connect() (*Client, error) {
	rwc, err := redial.DialStream(r.cfg.Dial, r.cfg.Addr)
	if err != nil {
		return nil, err
	}
	c := NewClient(rwc)
	if r.cfg.CallTimeout > 0 {
		c.conn.SetCallTimeout(r.cfg.CallTimeout)
	}
	if r.cfg.KeepaliveInterval > 0 {
		c.conn.StartKeepalive(r.cfg.KeepaliveInterval)
	}
	return c, nil
}

// Close permanently shuts the client down; the redial loop stops and
// Done() fires.
func (r *ResilientClient) Close() error { return r.sup.Close() }

// Done fires when the client is closed (not on transient disconnects).
func (r *ResilientClient) Done() <-chan struct{} { return r.sup.Done() }

// Connected reports whether a live connection is currently established.
func (r *ResilientClient) Connected() bool { return r.sup.Connected() }

// --- RPC passthroughs (valid only while connected) ---

// GetSchema fetches and parses a database schema.
func (r *ResilientClient) GetSchema(db string) (*DatabaseSchema, error) {
	c, err := r.sup.Get()
	if err != nil {
		return nil, err
	}
	return c.GetSchema(db)
}

// Transact runs operations against the named database.
func (r *ResilientClient) Transact(db string, ops ...Operation) ([]OpResult, error) {
	c, err := r.sup.Get()
	if err != nil {
		return nil, err
	}
	return c.Transact(db, ops...)
}

// TransactErr is Transact with per-operation errors folded into the
// returned error.
func (r *ResilientClient) TransactErr(db string, ops ...Operation) ([]OpResult, error) {
	c, err := r.sup.Get()
	if err != nil {
		return nil, err
	}
	return c.TransactErr(db, ops...)
}

// --- Monitor with resync ---

// MonitorTxn registers the client's single self-healing monitor: it is
// re-established after every reconnection, with the difference between
// the fresh snapshot and the last observed state delivered to cb as one
// synthetic update (txn 0). Updates — live and synthetic — are delivered
// strictly serialized.
func (r *ResilientClient) MonitorTxn(db string, id any, requests map[string]*MonitorRequest, cb func(uint64, TableUpdates)) (TableUpdates, error) {
	c, err := r.sup.Get()
	if err != nil {
		return nil, err
	}
	r.monMu.Lock()
	defer r.monMu.Unlock()
	if r.mon != nil {
		return nil, errors.New("ovsdb: resilient client supports a single monitor")
	}
	// NoCursor: a first registration wants the full snapshot; the reply's
	// lastTxn seeds the resumption cursor for later reconnections.
	r.monGen++
	_, lastTxn, initial, _, err := c.MonitorSince(db, id, requests, NoCursor, r.bind(r.monGen))
	if err != nil {
		return nil, err
	}
	r.mon = &monState{db: db, id: id, requests: requests, cb: cb, cache: cacheOf(initial), lastTxn: lastTxn}
	return initial, nil
}

// bind returns the delivery callback for one underlying connection,
// tied to the monitor generation it was registered under.
func (r *ResilientClient) bind(gen uint64) func(uint64, TableUpdates) {
	return func(txn uint64, tu TableUpdates) { r.deliver(gen, txn, tu) }
}

// deliver is the callback registered on every underlying connection: it
// folds the update into the row cache and forwards it, all under monMu
// so resync diffs see a consistent cache. Updates from a superseded
// generation — queued in a dead connection's delivery goroutine while a
// resync held monMu — are dropped: the resync that bumped the
// generation already covered them, and applying them late would roll
// the cache back to stale row images and replay txns out of order.
func (r *ResilientClient) deliver(gen, txn uint64, tu TableUpdates) {
	r.monMu.Lock()
	defer r.monMu.Unlock()
	if r.mon == nil || gen != r.monGen {
		return
	}
	r.mon.apply(tu)
	if txn > r.mon.lastTxn {
		r.mon.lastTxn = txn
	}
	r.mon.cb(txn, tu)
}

// ResyncStats reports how completed reconnections resynchronized the
// monitor: by replaying only the missed commits from the server's gap
// window, or by falling back to a full snapshot diff.
func (r *ResilientClient) ResyncStats() (gapReplays, snapshotResyncs uint64) {
	return r.nGapReplays.Load(), r.nSnapResyncs.Load()
}

// cacheOf seeds a row cache from an initial snapshot.
func cacheOf(initial TableUpdates) map[string]map[string]Row {
	cache := make(map[string]map[string]Row, len(initial))
	for table, tu := range initial {
		rows := make(map[string]Row, len(tu))
		for uuid, ru := range tu {
			if ru.New != nil {
				rows[uuid] = ru.New
			}
		}
		cache[table] = rows
	}
	return cache
}

// apply folds one update into the cache. New carries the full selected
// row for inserts and modifies, so it replaces wholesale; a nil New is a
// delete.
func (m *monState) apply(tu TableUpdates) {
	for table, rows := range tu {
		cached := m.cache[table]
		if cached == nil {
			cached = make(map[string]Row)
			m.cache[table] = cached
		}
		for uuid, ru := range rows {
			if ru.New != nil {
				cached[uuid] = ru.New
			} else {
				delete(cached, uuid)
			}
		}
	}
}

// diff computes the synthetic update turning the cached state into
// fresh, then replaces the cache with fresh. Deletes carry the full old
// row and modifies carry the full old row in Old (not just changed
// columns) — subscribers reconstructing old rows by overlaying Old onto
// New therefore see exactly the cached row.
func (m *monState) diff(fresh TableUpdates) TableUpdates {
	next := cacheOf(fresh)
	out := make(TableUpdates)
	tables := make(map[string]bool, len(m.cache)+len(next))
	for t := range m.cache {
		tables[t] = true
	}
	for t := range next {
		tables[t] = true
	}
	for t := range tables {
		oldRows, newRows := m.cache[t], next[t]
		tu := make(TableUpdate)
		for uuid, oldRow := range oldRows {
			newRow, ok := newRows[uuid]
			switch {
			case !ok:
				tu[uuid] = RowUpdate{Old: oldRow}
			case !rowsEqual(oldRow, newRow):
				tu[uuid] = RowUpdate{Old: oldRow, New: newRow}
			}
		}
		for uuid, newRow := range newRows {
			if _, ok := oldRows[uuid]; !ok {
				tu[uuid] = RowUpdate{New: newRow}
			}
		}
		if len(tu) > 0 {
			out[t] = tu
		}
	}
	m.cache = next
	return out
}

// resync re-establishes the monitor on a fresh connection and delivers
// whatever the subscriber missed during the outage. Called before the
// connection is published, so RPC users never see a half-resynced
// session.
//
// The monitor is re-issued with the cursor of the last observed
// transaction. A server still retaining that point in its gap-replay
// window answers with only the missed commits, delivered here as
// ordinary per-transaction updates — resync work proportional to the
// outage, not to database size. When the cursor has been compacted away
// (or the server lost unsynced history), the reply is a full snapshot
// and the PR 5 snapshot-diff path takes over: the difference against
// the cached state goes out as one synthetic update (txn 0).
//
// Holding monMu while awaiting the monitor reply is safe: live updates
// arriving early park in the client's delivery goroutine, not on the
// connection's read loop.
func (r *ResilientClient) resync(c *Client) error {
	r.monMu.Lock()
	defer r.monMu.Unlock()
	if r.mon == nil {
		return nil
	}
	// Registering under a new generation invalidates the dead
	// connection's callback: anything it still has queued is covered by
	// this resync and must not be re-applied after it.
	r.monGen++
	found, lastTxn, fresh, gap, err := c.MonitorSince(r.mon.db, r.mon.id, r.mon.requests, r.mon.lastTxn, r.bind(r.monGen))
	if err != nil {
		return err
	}
	if found {
		rows := 0
		for _, g := range gap {
			for _, tu := range g.Updates {
				rows += len(tu)
			}
			r.mon.apply(g.Updates)
			if g.Txn > r.mon.lastTxn {
				r.mon.lastTxn = g.Txn
			}
			r.mon.cb(g.Txn, g.Updates)
		}
		if lastTxn > r.mon.lastTxn {
			r.mon.lastTxn = lastTxn
		}
		r.mGapReplays.Inc()
		r.nGapReplays.Add(1)
		r.rec.Append(obs.Ev("ovsdb", "conn.resync").
			F("gap", 1).
			F("txns", int64(len(gap))).
			F("rows", int64(rows)))
		return nil
	}
	diff := r.mon.diff(fresh)
	r.mon.lastTxn = lastTxn
	rows := 0
	for _, tu := range diff {
		rows += len(tu)
	}
	r.mSnapResyncs.Inc()
	r.nSnapResyncs.Add(1)
	r.rec.Append(obs.Ev("ovsdb", "conn.resync").
		F("gap", 0).
		F("tables", int64(len(diff))).
		F("rows", int64(rows)))
	if len(diff) > 0 {
		r.mon.cb(0, diff)
	}
	return nil
}
