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

// SnapshotTxn tags the one delivery of a monitor's fresh snapshot after a
// reconnect the server could not resume from its gap window. It is never
// a real transaction ID. The delivery holds every monitored row, each as
// an insert; a row the subscriber holds that is not in it is gone.
const SnapshotTxn = ^uint64(0)

// monState is the monitor the resilient client re-establishes after every
// reconnection.
type monState struct {
	db       string
	id       any
	requests map[string]*MonitorRequest
	cb       func(uint64, TableUpdates)
	// lastTxn is the resumption cursor: the newest transaction delivered.
	// Reconnection passes it as the monitor's since so a server retaining
	// the gap replays only the missed commits.
	lastTxn uint64
}

// ResilientClient wraps Client with automatic redial and monitor
// re-establishment. On connection loss it redials with jittered
// exponential backoff and re-issues the monitor from its cursor. The
// subscriber receives the missed commits when the server still retains
// them, and otherwise the fresh snapshot once, tagged SnapshotTxn, to
// reconcile against the state it holds.
//
// Done() fires only on Close, never on transient connection loss: the
// whole point is that subscribers outlive individual connections.
type ResilientClient struct {
	cfg ResilientConfig
	sup *redial.Supervisor[*Client]

	// monMu serializes monitor registration and callback delivery, so
	// resync deliveries and live updates never interleave out of order.
	// monGen counts monitor registrations: each connection's delivery
	// callback is bound to the generation it was registered under, so
	// updates still queued from a dead connection are dropped instead of
	// being delivered after a resync has already covered them.
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
		"Reconnections that fell back to delivering a full snapshot.")
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
// re-established after every reconnection, and cb receives the missed
// commits or, when the server no longer retains them, the fresh snapshot
// tagged SnapshotTxn. Every delivery is strictly serialized.
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
	r.mon = &monState{db: db, id: id, requests: requests, cb: cb, lastTxn: lastTxn}
	return initial, nil
}

// bind returns the delivery callback for one underlying connection,
// tied to the monitor generation it was registered under.
func (r *ResilientClient) bind(gen uint64) func(uint64, TableUpdates) {
	return func(txn uint64, tu TableUpdates) { r.deliver(gen, txn, tu) }
}

// deliver is the callback registered on every underlying connection: it
// advances the cursor and forwards the update under monMu. Updates from
// a superseded generation — queued in a dead connection's delivery
// goroutine while a resync held monMu — are dropped: the resync that
// bumped the generation already covered them, and delivering them late
// would replay stale row images out of order.
func (r *ResilientClient) deliver(gen, txn uint64, tu TableUpdates) {
	r.monMu.Lock()
	defer r.monMu.Unlock()
	if r.mon == nil || gen != r.monGen {
		return
	}
	if txn > r.mon.lastTxn {
		r.mon.lastTxn = txn
	}
	r.mon.cb(txn, tu)
}

// ResyncStats reports how completed reconnections resynchronized the
// monitor: by replaying only the missed commits from the server's gap
// window, or by falling back to delivering a full snapshot.
func (r *ResilientClient) ResyncStats() (gapReplays, snapshotResyncs uint64) {
	return r.nGapReplays.Load(), r.nSnapResyncs.Load()
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
// (or the server lost unsynced history), the reply is a full snapshot,
// delivered whole as one update tagged SnapshotTxn: the subscriber
// reconciles it against what it holds.
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
	r.mon.lastTxn = lastTxn
	rows := 0
	for _, tu := range fresh {
		rows += len(tu)
	}
	r.mSnapResyncs.Inc()
	r.nSnapResyncs.Add(1)
	r.rec.Append(obs.Ev("ovsdb", "conn.resync").
		F("gap", 0).
		F("tables", int64(len(fresh))).
		F("rows", int64(rows)))
	r.mon.cb(SnapshotTxn, fresh)
	return nil
}
