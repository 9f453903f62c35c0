package p4rt

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/jsonrpc"
	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/redial"
)

// ErrUnavailable marks RPCs that failed because the device connection is
// down, died mid-call or timed out. The failed call's session is closed,
// so a redial, and with it the OnReconnect hook, always follows: callers
// that supervise their own resync — the controller — treat it as "the
// device will be reconciled on reconnect" rather than a fatal push error.
var ErrUnavailable = errors.New("p4rt: device unavailable")

// ErrClosed is returned by RPCs issued after Close.
var ErrClosed = errors.New("p4rt: client closed")

// ResilientConfig configures a self-healing p4rt client.
type ResilientConfig struct {
	// Addr is the switch address passed to Dial on every (re)connection.
	Addr string
	// Dial establishes the byte stream; nil selects TCP.
	Dial func(addr string) (io.ReadWriteCloser, error)
	// BackoffMin/BackoffMax bound the jittered exponential redial backoff
	// (defaults 50ms and 5s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// CallTimeout bounds every RPC on every connection (0 = none).
	CallTimeout time.Duration
	// KeepaliveInterval enables echo heartbeats (0 = disabled).
	KeepaliveInterval time.Duration
	// Obs receives p4rt_reconnects_total / p4rt_disconnected (labelled
	// with Target) and the conn.drop / conn.redial events, plus the
	// degraded-readiness flag while the device is down.
	Obs *obs.Observer
	// Target is the device id: it labels the metrics, the flight-recorder
	// events, and the degraded key ("p4rt:<target>").
	Target string
}

// ResilientClient wraps Client with automatic redial. On connection loss
// it redials with jittered exponential backoff, re-arms the digest
// handler, then runs the OnReconnect hook (the controller's
// state reconciliation), which publishes the session — so by the time
// Write succeeds again, the device's tables have been diffed against the
// desired state and healed.
//
// Done() fires only on Close, never on transient connection loss.
type ResilientClient struct {
	cfg ResilientConfig
	sup *redial.Supervisor[*Client]

	mu          sync.Mutex
	onDigest    func(DigestList)
	onReconnect func(c *Client, publish func() bool) error
}

// DialResilient connects to the switch and starts the supervision loop.
// The initial dial fails fast; only established sessions self-heal.
func DialResilient(cfg ResilientConfig) (*ResilientClient, error) {
	if cfg.Target == "" {
		cfg.Target = cfg.Addr
	}
	r := &ResilientClient{cfg: cfg}
	reg := cfg.Obs.Reg()
	lbl := obs.L("target", cfg.Target)
	r.sup = redial.New(redial.Config[*Client]{
		Connect:     r.connect,
		Rearm:       r.reconcile,
		BackoffMin:  cfg.BackoffMin,
		BackoffMax:  cfg.BackoffMax,
		ErrClosed:   ErrClosed,
		ErrDown:     fmt.Errorf("%w: redialing %s", ErrUnavailable, cfg.Addr),
		Obs:         cfg.Obs,
		Plane:       "p4rt",
		Device:      cfg.Target,
		DegradedKey: "p4rt:" + cfg.Target,
		Reconnects: reg.Counter("p4rt_reconnects_total",
			"Successful p4rt session re-establishments after connection loss.", lbl),
		Disconnected: reg.Gauge("p4rt_disconnected",
			"1 while this device's connection is down and redialing, else 0.", lbl),
	})
	if err := r.sup.Start(); err != nil {
		return nil, err
	}
	return r, nil
}

// connect dials one session and arms it with the digest trampoline, so
// a handler installed at any time — before, during or after a redial —
// serves whichever session is live.
func (r *ResilientClient) connect() (*Client, error) {
	rwc, err := redial.DialStream(r.cfg.Dial, r.cfg.Addr)
	if err != nil {
		return nil, err
	}
	c := NewClient(rwc)
	if r.cfg.CallTimeout > 0 {
		c.SetCallTimeout(r.cfg.CallTimeout)
	}
	if r.cfg.KeepaliveInterval > 0 {
		c.StartKeepalive(r.cfg.KeepaliveInterval)
	}
	if r.cfg.Obs != nil {
		c.SetObs(r.cfg.Obs, r.cfg.Target)
	}
	c.OnDigest(func(dl DigestList) {
		r.mu.Lock()
		f := r.onDigest
		r.mu.Unlock()
		if f != nil {
			f(dl)
		}
	})
	return c, nil
}

// reconcile runs the OnReconnect hook, if any, against c.
func (r *ResilientClient) reconcile(c *Client, publish func() bool) error {
	r.mu.Lock()
	hook := r.onReconnect
	r.mu.Unlock()
	if hook == nil {
		return nil
	}
	return hook(c, publish)
}

// Close permanently shuts the client down.
func (r *ResilientClient) Close() error { return r.sup.Close() }

// Done fires when the client is closed (not on transient disconnects).
func (r *ResilientClient) Done() <-chan struct{} { return r.sup.Done() }

// Connected reports whether a live session is currently established.
func (r *ResilientClient) Connected() bool { return r.sup.Connected() }

// OnReconnect installs the post-redial reconciliation hook. It runs with
// the fresh (not yet published) client after handlers are re-armed, and
// may publish it by calling publish before it returns; otherwise the
// session is published when it returns. An error fails the attempt and
// the redial loop retries. The controller's hook diffs the device's
// tables against its desired state, re-pushes only the difference and
// publishes, all in one event of its loop.
func (r *ResilientClient) OnReconnect(f func(c *Client, publish func() bool) error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onReconnect = f
}

// OnDigest installs the digest handler (it outlives reconnections).
func (r *ResilientClient) OnDigest(f func(DigestList)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onDigest = f
}

// unavailableOn passes the switch's own RPC errors on session c (bad
// update, unknown table — real failures a resync will not cure) through
// unchanged. Any other failure closes c and wraps ErrUnavailable: the
// connection died, or the call timed out and the switch may or may not
// have applied it, and either way only the redial's resync levels the
// device again.
func unavailableOn(c *Client, err error) error {
	if err == nil {
		return nil
	}
	var rpcErr *jsonrpc.RPCError
	if errors.As(err, &rpcErr) {
		return err
	}
	c.Close()
	return fmt.Errorf("%w: %v", ErrUnavailable, err)
}

// GetP4Info fetches the running pipeline's description.
func (r *ResilientClient) GetP4Info() (*p4.P4Info, error) {
	c, err := r.sup.Get()
	if err != nil {
		return nil, err
	}
	info, err := c.GetP4Info()
	return info, unavailableOn(c, err)
}

// Write applies updates atomically on the device. While the device is
// down (or if the call fails other than by the switch's refusal) the
// error wraps ErrUnavailable; reconciliation on reconnect is then
// responsible for convergence.
func (r *ResilientClient) Write(updates ...Update) error {
	return r.WriteTxn(0, updates...)
}

// WriteTxn is Write with the originating transaction attached as
// optional wire metadata (see Client.WriteTxn).
func (r *ResilientClient) WriteTxn(txn uint64, updates ...Update) error {
	c, err := r.sup.Get()
	if err != nil {
		return err
	}
	return unavailableOn(c, c.WriteTxn(txn, updates...))
}

// ReadTable snapshots a table's entries.
func (r *ResilientClient) ReadTable(table string) ([]TableEntry, error) {
	c, err := r.sup.Get()
	if err != nil {
		return nil, err
	}
	entries, err := c.ReadTable(table)
	return entries, unavailableOn(c, err)
}
